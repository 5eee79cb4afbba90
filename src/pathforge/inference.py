"""Label-triple inference for path expressions against a graph schema.

A triple (source label, annotated expression, target label) records that the
expression can only connect nodes of those labels on a schema-conforming
database, and the annotated expression says which junction labels the
connecting paths pass through. The rules mirror the expression structure:

  TBasic    an edge label takes the (src, label, trg) of each schema edge
  TConcat   fold over the chain's factors, left to right: each join on a
            matching junction label makes it that junction's annotation
  TMinus    reversal swaps source and target
  TUnion    every operand's triples carry over unchanged
  TConj     fold over the operands, left to right: join on equal source
            AND equal target
  TBranchR  main[test]: join main's target with test's source; the result
            keeps main's endpoints
  TBranchL  [test]main: join on equal source; the result keeps main's target
  TPlus     closure triples come from cycle analysis of the triple graph
  TRepeat   a repetition e{m,n}, fixed powers e{m,m} included, the same
            analysis cut at n steps; e{1,1} is e

For closures and repetitions (`plus_comp`), the triples of the inner
expression form the triple graph over node labels, whose arc from a to b
holds every triple from a to b. The walk lists the label sequences of at
most n steps (unbounded for a closure) that repeat no label but may close a
round trip, and a label is cyclic when one of them returns to it. A
sequence clear of cyclic labels, of m steps or more, unrolls into its
annotated fixed-length triple paths, one triple per step; one touching a
cyclic label, of any length, keeps the closure or repetition whole, with
annotations dropped. So over a cycle a fixed power e{m,m} gets a superset
of its chain's label pairs, which is sound. The path limit caps triple
paths, counted per label sequence.
"""

from __future__ import annotations

import math
from itertools import pairwise, product
from operator import attrgetter
from typing import Iterable, NamedTuple

from .ast import (
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
    children,
    to_text,
)
# only the path-limit fallback calls this name; the benchmark tracer
# (perfbench/tracer.py) counts path-limit hits by wrapping it
from .evaluator import transitive_closure as _reachable_pairs
from .record import Record
from .schema import GraphSchema

DEFAULT_PATH_LIMIT = 10_000

# pairwise joins never perform more work than this many comparisons; a
# breach means label-set tracking for the expression is impractical
DEFAULT_JOIN_WORK_LIMIT = 25_000_000


class InferenceOverflow(ValueError):
    """Triple inference would exceed the join work limit."""


class SchemaTriple(NamedTuple):
    src: str
    expr: PathExpr
    trg: str

    def sort_key(self) -> tuple[str, str, str]:
        return (self.src, to_text(self.expr), self.trg)


class InferenceLog(Record):
    """Collects warnings (currently only the path-enumeration cap) and, in
    post-order, every sub-term inference finished with the triples it got."""

    __slots__ = __match_args__ = ("warnings", "steps")

    def __init__(
        self,
        warnings: list[str] | None = None,
        steps: list[tuple[PathExpr, frozenset[SchemaTriple]]] | None = None,
    ):
        self.warnings = [] if warnings is None else warnings
        self.steps = [] if steps is None else steps


def basic_triples(schema: GraphSchema) -> frozenset[SchemaTriple]:
    """One triple per schema edge: (source label, edge label, target label)."""
    return frozenset(SchemaTriple(e.src, Label(e.label), e.trg) for e in schema.edges)


def infer(
    expr: PathExpr,
    schema: GraphSchema,
    path_limit: int = DEFAULT_PATH_LIMIT,
    log: InferenceLog | None = None,
) -> frozenset[SchemaTriple]:
    """All triples compatible with a simplified, annotation-free expression.

    An empty result means no schema-conforming database can satisfy the
    expression. The result is a set: a caller that prints triples orders
    them itself, by `SchemaTriple.sort_key`. ``path_limit`` must be at
    least 0.
    """
    if path_limit < 0:
        raise ValueError(f"path limit must be at least 0, got {path_limit}")
    basics = basic_triples(schema)
    by_label: dict[str, list[SchemaTriple]] = {}
    for triple in basics:
        assert isinstance(triple.expr, Label)
        by_label.setdefault(triple.expr.name, []).append(triple)
    return _infer(expr, by_label, path_limit, log)


_SRC = attrgetter("src")
_TRG = attrgetter("trg")
_ENDS = attrgetter("src", "trg")


def _join(left, right, left_key, right_key, make) -> frozenset[SchemaTriple]:
    """`make(t1, t2)` for every t1 in ``left`` and t2 in ``right`` with equal
    keys. The work, one unit per matching pair, is checked against the join
    work limit before any triple is built."""
    groups: dict = {}
    for t2 in right:
        groups.setdefault(right_key(t2), []).append(t2)
    matches = [(t1, groups[key]) for t1 in left if (key := left_key(t1)) in groups]
    work = sum(len(group) for _, group in matches)
    if work > DEFAULT_JOIN_WORK_LIMIT:
        raise InferenceOverflow(
            f"inference join would need {work} combinations "
            f"(limit {DEFAULT_JOIN_WORK_LIMIT})"
        )
    return frozenset(make(t1, t2) for t1, group in matches for t2 in group)


# TConcat, TConj, TBranchR and TBranchL by node type: the key of the first
# operand's triples, the key of the second's, and the triple a matching pair
# makes. Operands are inferred in `children` order, so TBranchL infers its
# test before its main, and TConcat and TConj join each operand onto the
# triples of the ones before it.
_JOIN_RULES = {
    Concat: (
        _TRG,
        _SRC,
        lambda t1, t2: SchemaTriple(t1.src, Concat(t1.expr, t2.expr, frozenset({t1.trg})), t2.trg),
    ),
    Conj: (_ENDS, _ENDS, lambda t1, t2: SchemaTriple(t1.src, Conj(t1.expr, t2.expr), t1.trg)),
    BranchR: (_TRG, _SRC, lambda t1, t2: SchemaTriple(t1.src, BranchR(t1.expr, t2.expr), t1.trg)),
    BranchL: (_SRC, _SRC, lambda t1, t2: SchemaTriple(t2.src, BranchL(t1.expr, t2.expr), t2.trg)),
}


def _infer(
    expr: PathExpr,
    basics: dict[str, list[SchemaTriple]],
    path_limit: int,
    log: InferenceLog | None,
) -> frozenset[SchemaTriple]:
    if isinstance(expr, Label):
        out = frozenset(basics.get(expr.name, ()))
    elif isinstance(expr, Reverse):
        out = frozenset(
            SchemaTriple(t.trg, Reverse(expr.name), t.src) for t in basics.get(expr.name, ())
        )
    elif isinstance(expr, Concat) and set(expr.junctions) != {None}:
        raise ValueError("infer operates on plain (annotation-free) path expressions")
    elif type(expr) in _JOIN_RULES:
        operands, rule = children(expr), _JOIN_RULES[type(expr)]
        out = _infer(operands[0], basics, path_limit, log)
        for operand in operands[1:]:
            out = _join(out, _infer(operand, basics, path_limit, log), *rule)
    elif isinstance(expr, Union):
        out = frozenset().union(*(_infer(op, basics, path_limit, log) for op in expr.operands))
    elif isinstance(expr, Repeat) and expr.hi == 1:
        # e{1,1} is e: over a self-loop the walk would keep it whole beside e
        out = _infer(expr.inner, basics, path_limit, log)
    elif isinstance(expr, (TransClos, Repeat)):
        inner = _infer(expr.inner, basics, path_limit, log)
        bounds = (expr.lo, expr.hi) if isinstance(expr, Repeat) else ()
        out = plus_comp(expr.inner, inner, path_limit, log, *bounds)
    else:
        raise TypeError(f"not a path expression: {expr!r}")
    if log is not None:
        log.steps.append((expr, out))
    return out


def plus_comp(
    inner: PathExpr,
    triples: Iterable[SchemaTriple],
    path_limit: int = DEFAULT_PATH_LIMIT,
    log: InferenceLog | None = None,
    lo: int = 1,
    hi: float = math.inf,
) -> frozenset[SchemaTriple]:
    """Triples for the closure ``inner+``, or for the repetition
    ``inner{lo,hi}`` when ``hi`` is finite, from the triples of ``inner`` in any order; the
    result does not depend on the order. The closure is the range 1..inf.

    Walks the label sequences of the triple graph, of at most ``hi`` steps,
    that repeat no label (closed round trips allowed); each stands for its
    triple paths, one triple chosen per step. The cyclic labels are the
    starts of the round trips the walk lists: within ``hi`` steps, only a
    cycle of at most ``hi`` steps can repeat a label. A cycle-free sequence
    of ``lo`` steps or more emits the concatenation of each path's annotated
    expressions; one touching a cyclic label emits the bare closure or
    repetition between its endpoints. If more than ``path_limit`` triple
    paths exist in total, the walk stops, and only then are the reachable
    label pairs computed: each conservatively keeps the closure or
    repetition.
    ``path_limit`` must be at least 0.
    """
    if path_limit < 0:
        raise ValueError(f"path limit must be at least 0, got {path_limit}")
    arcs: dict[tuple[str, str], list[SchemaTriple]] = {}
    for arc in triples:
        arcs.setdefault((arc.src, arc.trg), []).append(arc)
    successors: dict[str, list[str]] = {}
    for src, trg in arcs:
        successors.setdefault(src, []).append(trg)
    whole = TransClos(inner) if hi == math.inf else Repeat(inner, lo, hi)
    sequences: list[tuple[str, ...]] = []
    total = 0
    for start in successors:
        # per label on the path: its triple-path count and successors left
        path, frames = [start], [(1, iter(successors[start]))]
        while frames and total <= path_limit:
            count, todo = frames[-1]
            trg = next(todo, None)
            if trg is None:
                frames.pop()
                path.pop()
            elif trg == start or trg not in path:
                count *= len(arcs[path[-1], trg])
                total += count
                sequences.append((*path, trg))
                # the sequence just listed has len(path) steps
                if trg != start and len(path) < hi:
                    path.append(trg)
                    frames.append((count, iter(successors.get(trg, ()))))
    if total > path_limit:
        if log is not None:
            kept = "closure" if hi == math.inf else "range"
            log.warnings.append(
                f"path enumeration exceeded {path_limit} paths; keeping the {kept}"
            )
        reach = _reachable_pairs(successors)
        return frozenset(
            SchemaTriple(src, whole, trg) for src, trgs in reach.items() for trg in trgs
        )
    # the walk listed every round trip of at most hi steps, and a label is
    # cyclic when one starts from it
    cyclic = {path[0] for path in sequences if path[0] == path[-1]}
    out: set[SchemaTriple] = set()
    for path in sequences:
        # a round trip touches a cycle: its start reaches itself
        if not cyclic.isdisjoint(path):
            out.add(SchemaTriple(path[0], whole, path[-1]))
        elif len(path) > lo:
            junctions = [frozenset({label}) for label in path[1:-1]]
            for chain in product(*(arcs[step] for step in pairwise(path))):
                expr = Concat.chain([arc.expr for arc in chain], junctions)
                out.add(SchemaTriple(path[0], expr, path[-1]))
    return frozenset(out)


class DerivationRow(NamedTuple):
    term: str
    rule: str
    # each triple as its sort key (source, expression text, target), in order
    triples: tuple[tuple[str, str, str], ...]


_RULE_NAMES = {
    Label: "TBasic",
    Reverse: "TMinus",
    Concat: "TConcat",
    Union: "TUnionL/R",
    Conj: "TConj",
    BranchR: "TBranchR",
    BranchL: "TBranchL",
    TransClos: "TPlus",
    Repeat: "TRepeat",
}


def derive(
    expr: PathExpr, schema: GraphSchema, path_limit: int = DEFAULT_PATH_LIMIT
) -> list[DerivationRow]:
    """Triples of every distinct sub-term, innermost first."""
    log = InferenceLog()
    infer(expr, schema, path_limit, log)
    return derivation_rows([log])


def derivation_rows(logs: Iterable[InferenceLog]) -> list[DerivationRow]:
    """One row per distinct sub-term recorded on the logs, in step order;
    the first occurrence of a term text wins."""
    rows: dict[str, DerivationRow] = {}
    for log in logs:
        for node, triples in log.steps:
            text = to_text(node)
            if text not in rows:
                keys = tuple(sorted(triple.sort_key() for triple in triples))
                rows[text] = DerivationRow(text, _RULE_NAMES[type(node)], keys)
    return list(rows.values())
