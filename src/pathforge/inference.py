"""Label-triple inference for path expressions against a graph schema.

A triple (source label, annotated expression, target label) records that the
expression can only connect nodes of those labels on a schema-conforming
database, and the annotated expression says which junction labels the
connecting paths pass through. The rules mirror the expression structure:

  TBasic    an edge label takes the (src, label, trg) of each schema edge
  TConcat   join on matching junction label, which becomes the annotation
  TMinus    reversal swaps source and target
  TUnion    either side's triples carry over unchanged
  TConj     join on equal source AND equal target
  TBranchR  main[test]: join main's target with test's source; the result
            keeps main's endpoints
  TBranchL  [test]main: join on equal source; the result keeps main's target
  TPlus     closure triples come from cycle analysis of the triple graph

For closures, the triples of the inner expression form a directed graph over
node labels. If a closure walk can be confined to finitely many label paths
(no cycle touched), the closure unrolls into those annotated fixed-length
paths; any path touching a cycle keeps the closure, with annotations dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .ast import (
    AnnConcat,
    BranchL,
    BranchR,
    Concat,
    Conj,
    Label,
    PathExpr,
    Repeat,
    Reverse,
    TransClos,
    Union,
    to_text,
)
from .schema import GraphSchema

DEFAULT_PATH_LIMIT = 10_000

# pairwise joins never perform more work than this many comparisons; a
# breach means label-set tracking for the expression is impractical
DEFAULT_JOIN_WORK_LIMIT = 25_000_000


class InferenceOverflow(ValueError):
    """Triple inference would exceed the join work limit."""


@dataclass(frozen=True, slots=True)
class SchemaTriple:
    src: str
    expr: PathExpr
    trg: str

    def sort_key(self) -> tuple[str, str, str]:
        return (self.src, to_text(self.expr), self.trg)


@dataclass
class InferenceLog:
    """Collects warnings (currently only the path-enumeration cap) and, in
    post-order, every sub-term inference finished with the triples it got."""

    warnings: list[str] = field(default_factory=list)
    steps: list[tuple[PathExpr, set[SchemaTriple]]] = field(default_factory=list)


def _canonical(triples: set[SchemaTriple]) -> tuple[SchemaTriple, ...]:
    return tuple(sorted(triples, key=SchemaTriple.sort_key))


def basic_triples(schema: GraphSchema) -> tuple[SchemaTriple, ...]:
    """One triple per schema edge: (source label, edge label, target label)."""
    label_of = {node.id: node.label for node in schema.nodes}
    triples = {
        SchemaTriple(label_of[edge.src], Label(edge.label), label_of[edge.trg])
        for edge in schema.edges
    }
    return _canonical(triples)


def infer(
    expr: PathExpr,
    schema: GraphSchema,
    path_limit: int = DEFAULT_PATH_LIMIT,
    log: InferenceLog | None = None,
) -> tuple[SchemaTriple, ...]:
    """All triples compatible with a simplified, repeat-free expression.

    An empty result means no schema-conforming database can satisfy the
    expression. Output order is canonical, so runs are byte-reproducible.
    """
    basics = basic_triples(schema)
    by_label: dict[str, list[SchemaTriple]] = {}
    for triple in basics:
        assert isinstance(triple.expr, Label)
        by_label.setdefault(triple.expr.name, []).append(triple)
    return _canonical(_infer(expr, by_label, path_limit, log))


def _grouped(triples: set[SchemaTriple], key) -> dict:
    out: dict = {}
    for triple in triples:
        out.setdefault(key(triple), []).append(triple)
    return out


def _check_join_work(left: dict, right: dict) -> None:
    work = sum(len(group) * len(right[k]) for k, group in left.items() if k in right)
    if work > DEFAULT_JOIN_WORK_LIMIT:
        raise InferenceOverflow(
            f"inference join would need {work} combinations "
            f"(limit {DEFAULT_JOIN_WORK_LIMIT})"
        )


def _infer(
    expr: PathExpr,
    basics: dict[str, list[SchemaTriple]],
    path_limit: int,
    log: InferenceLog | None,
) -> set[SchemaTriple]:
    if isinstance(expr, Label):
        out = set(basics.get(expr.name, ()))
    elif isinstance(expr, Reverse):
        out = {
            SchemaTriple(t.trg, Reverse(expr.name), t.src) for t in basics.get(expr.name, ())
        }
    elif isinstance(expr, Concat):
        left = _grouped(_infer(expr.left, basics, path_limit, log), lambda t: t.trg)
        right = _grouped(_infer(expr.right, basics, path_limit, log), lambda t: t.src)
        _check_join_work(left, right)
        out = {
            SchemaTriple(t1.src, AnnConcat(t1.expr, frozenset({t1.trg}), t2.expr), t2.trg)
            for key, group in left.items()
            for t1 in group
            for t2 in right.get(key, ())
        }
    elif isinstance(expr, Union):
        out = _infer(expr.left, basics, path_limit, log) | _infer(
            expr.right, basics, path_limit, log
        )
    elif isinstance(expr, Conj):
        left = _grouped(_infer(expr.left, basics, path_limit, log), lambda t: (t.src, t.trg))
        right = _grouped(_infer(expr.right, basics, path_limit, log), lambda t: (t.src, t.trg))
        _check_join_work(left, right)
        out = {
            SchemaTriple(t1.src, Conj(t1.expr, t2.expr), t1.trg)
            for key, group in left.items()
            for t1 in group
            for t2 in right.get(key, ())
        }
    elif isinstance(expr, BranchR):
        main = _grouped(_infer(expr.main, basics, path_limit, log), lambda t: t.trg)
        test = _grouped(_infer(expr.test, basics, path_limit, log), lambda t: t.src)
        _check_join_work(main, test)
        out = {
            SchemaTriple(t1.src, BranchR(t1.expr, t2.expr), t1.trg)
            for key, group in main.items()
            for t1 in group
            for t2 in test.get(key, ())
        }
    elif isinstance(expr, BranchL):
        test = _grouped(_infer(expr.test, basics, path_limit, log), lambda t: t.src)
        main = _grouped(_infer(expr.main, basics, path_limit, log), lambda t: t.src)
        _check_join_work(test, main)
        out = {
            SchemaTriple(t2.src, BranchL(t1.expr, t2.expr), t2.trg)
            for key, group in test.items()
            for t1 in group
            for t2 in main.get(key, ())
        }
    elif isinstance(expr, TransClos):
        inner = _infer(expr.inner, basics, path_limit, log)
        out = set(plus_comp(expr.inner, _canonical(inner), path_limit, log))
    elif isinstance(expr, Repeat):
        raise ValueError("infer expects a desugared (repeat-free) expression")
    elif isinstance(expr, AnnConcat):
        raise ValueError("infer operates on plain (annotation-free) path expressions")
    else:
        raise TypeError(f"not a path expression: {expr!r}")
    if log is not None:
        log.steps.append((expr, out))
    return out


@dataclass(frozen=True)
class TripleGraph:
    """Directed graph over node labels whose arcs are schema triples."""

    vertices: frozenset[str]
    arcs: tuple[SchemaTriple, ...]

    @classmethod
    def from_triples(cls, triples: tuple[SchemaTriple, ...]) -> "TripleGraph":
        vertices: set[str] = set()
        for triple in triples:
            vertices.update((triple.src, triple.trg))
        return cls(vertices=frozenset(vertices), arcs=tuple(triples))

    @cached_property
    def arcs_by_src(self) -> dict[str, tuple[SchemaTriple, ...]]:
        out: dict[str, list[SchemaTriple]] = {}
        for arc in self.arcs:
            out.setdefault(arc.src, []).append(arc)
        return {src: tuple(sorted(arcs, key=SchemaTriple.sort_key)) for src, arcs in out.items()}

    @cached_property
    def cyclic_vertices(self) -> frozenset[str]:
        """Vertices on some cycle: members of a multi-vertex strongly
        connected component, or carrying a self-loop arc."""
        order: list[str] = []
        seen: set[str] = set()
        for start in sorted(self.vertices):
            if start in seen:
                continue
            stack: list[tuple[str, int]] = [(start, 0)]
            seen.add(start)
            while stack:
                vertex, edge_index = stack[-1]
                targets = sorted({t.trg for t in self.arcs_by_src.get(vertex, ())})
                if edge_index < len(targets):
                    stack[-1] = (vertex, edge_index + 1)
                    nxt = targets[edge_index]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(stack.pop()[0])

        reverse: dict[str, set[str]] = {}
        for arc in self.arcs:
            reverse.setdefault(arc.trg, set()).add(arc.src)

        component_of: dict[str, int] = {}
        component_sizes: dict[int, int] = {}
        current = 0
        assigned: set[str] = set()
        for start in reversed(order):
            if start in assigned:
                continue
            stack2 = [start]
            assigned.add(start)
            members = []
            while stack2:
                vertex = stack2.pop()
                members.append(vertex)
                for prev in reverse.get(vertex, ()):
                    if prev not in assigned:
                        assigned.add(prev)
                        stack2.append(prev)
            for member in members:
                component_of[member] = current
            component_sizes[current] = len(members)
            current += 1

        cyclic = {v for v in self.vertices if component_sizes[component_of[v]] > 1}
        for arc in self.arcs:
            if arc.src == arc.trg:
                cyclic.add(arc.src)
        return frozenset(cyclic)


class _PathLimitHit(Exception):
    pass


def plus_comp(
    inner: PathExpr,
    triples: tuple[SchemaTriple, ...],
    path_limit: int = DEFAULT_PATH_LIMIT,
    log: InferenceLog | None = None,
) -> tuple[SchemaTriple, ...]:
    """Closure triples for ``inner+`` given the triples of ``inner``.

    Walks all label paths without repeated vertices (closed round trips
    allowed) in the triple graph. A path that stays clear of every cycle
    emits the concatenation of its arcs' annotated expressions; a path
    touching a cycle emits the bare closure between its endpoints. If more
    than ``path_limit`` paths exist, enumeration aborts and every reachable
    label pair conservatively keeps the closure.
    """
    graph = TripleGraph.from_triples(tuple(triples))
    cyclic = graph.cyclic_vertices
    closure_expr = TransClos(inner)
    out: set[SchemaTriple] = set()
    budget = [path_limit]

    def emit(path: list[SchemaTriple]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise _PathLimitHit
        start, end = path[0].src, path[-1].trg
        if any(v in cyclic for v in _path_vertices(path)):
            out.add(SchemaTriple(start, closure_expr, end))
        else:
            expr = path[-1].expr
            for arc in reversed(path[:-1]):
                expr = AnnConcat(arc.expr, frozenset({arc.trg}), expr)
            out.add(SchemaTriple(start, expr, end))

    def extend(path: list[SchemaTriple], on_path: set[str]) -> None:
        emit(path)
        here = path[-1].trg
        for arc in graph.arcs_by_src.get(here, ()):
            if arc.trg == path[0].src:
                emit(path + [arc])
            elif arc.trg not in on_path:
                extend(path + [arc], on_path | {arc.trg})

    try:
        for start in sorted(graph.vertices):
            for arc in graph.arcs_by_src.get(start, ()):
                if arc.trg == start:
                    emit([arc])
                else:
                    extend([arc], {start, arc.trg})
    except _PathLimitHit:
        if log is not None:
            log.warnings.append(
                f"path enumeration exceeded {path_limit} paths; keeping the closure"
            )
        out = {
            SchemaTriple(src, closure_expr, trg)
            for src, trg in _reachable_pairs(graph)
        }
    return _canonical(out)


def _path_vertices(path: list[SchemaTriple]) -> list[str]:
    return [path[0].src] + [arc.trg for arc in path]


def _reachable_pairs(graph: TripleGraph) -> set[tuple[str, str]]:
    out = set()
    for start in graph.vertices:
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            vertex = frontier.pop()
            for arc in graph.arcs_by_src.get(vertex, ()):
                if (start, arc.trg) not in out:
                    out.add((start, arc.trg))
                if arc.trg not in seen:
                    seen.add(arc.trg)
                    frontier.append(arc.trg)
    return out


@dataclass(frozen=True)
class DerivationRow:
    term: str
    rule: str
    triples: tuple[SchemaTriple, ...]


_RULE_NAMES = {
    Label: "TBasic",
    Reverse: "TMinus",
    Concat: "TConcat",
    Union: "TUnionL/R",
    Conj: "TConj",
    BranchR: "TBranchR",
    BranchL: "TBranchL",
    TransClos: "TPlus",
}


def derive(
    expr: PathExpr,
    schema: GraphSchema,
    path_limit: int = DEFAULT_PATH_LIMIT,
    log: InferenceLog | None = None,
) -> list[DerivationRow]:
    """Triples of every distinct sub-term, innermost first."""
    own = InferenceLog()
    infer(expr, schema, path_limit, own)
    if log is not None:
        log.warnings.extend(own.warnings)
    return derivation_rows([own])


def derivation_rows(logs: Iterable[InferenceLog]) -> list[DerivationRow]:
    """One row per distinct sub-term recorded on the logs, in step order;
    the first occurrence of a term text wins."""
    rows: dict[str, DerivationRow] = {}
    for log in logs:
        for node, triples in log.steps:
            text = to_text(node)
            if text not in rows:
                rows[text] = DerivationRow(text, _RULE_NAMES[type(node)], _canonical(triples))
    return list(rows.values())
