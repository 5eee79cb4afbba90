"""Schema-aware query rewriting.

Pipeline per relation atom: simplify the path expression, infer its
compatible label triples, merge triples sharing a plain expression, and
drop annotations the schema makes vacuous. A repetition e{m,n}, a fixed
power e{m,m} included, reaches inference as one node: TRepeat unrolls it
into annotated chains where its body's triple graph has no cycle of at most
n steps, and keeps it whole elsewhere, so the rewriter never multiplies
disjuncts by the repetition's powers. What happens next depends on the
merged alternatives:

- When none carries label information (no endpoint label set, no junction
  annotation), they fold into one union. The atom becomes that single union
  atom when the union has fewer AST nodes than the simplified expression
  inference read, and otherwise reverts. Label-free alternatives never
  multiply disjuncts.
- Otherwise each alternative is translated into atoms: branch and
  conjunction operators always split it, annotated or not, and surviving
  junction annotations become label atoms on fresh variables. The conjunct
  is then distributed over the atoms' alternatives. When that product
  exceeds the disjunct limit, the atom with the most alternatives reverts,
  until it fits.

A reverted atom keeps the simplified expression inference read.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

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
    has_annotations,
    map_children,
    strip_annotations,
    to_text,
    walk,
)
from .ast import desugar  # noqa: F401  the benchmark tracer (perfbench/tracer.py) wraps it
from .inference import (
    DEFAULT_PATH_LIMIT,
    InferenceLog,
    InferenceOverflow,
    SchemaTriple,
    infer,
)
from .query import (
    Conjunct,
    LabelAtom,
    Relation,
    UcqtQuery,
    conjunct_to_text,
    fresh_names,
    validate_query,
)
from .record import Record
from .schema import GraphSchema
from .simplify import simplify

DEFAULT_DISJUNCT_LIMIT = 64


class MergedTriple(NamedTuple):
    """Label-set form of a group of triples with one underlying expression.

    Empty source/target sets mean "unconstrained"; they are produced by
    redundancy removal, never by merging itself.
    """

    src_set: frozenset[str]
    expr: PathExpr
    trg_set: frozenset[str]


def merge_triples(triples: tuple[SchemaTriple, ...] | list[SchemaTriple]) -> tuple[MergedTriple, ...]:
    """Group by underlying plain expression and union the label sets.

    Nodes are interned, so triples with equal plain expressions share one
    plain node, and grouping compares pointers, not trees. The input is
    the triple set of one `infer` call. Its triples that strip
    to one plain expression then share that expression's shape, junction
    annotations included (inference annotates every composition outside a
    closure or range, and `plus_comp` builds each closure and range from
    the plain body), and differ only in their junction label sets; the
    merge relies on that.
    """
    groups: dict[PathExpr, list[SchemaTriple]] = {}
    for triple in triples:
        groups.setdefault(strip_annotations(triple.expr), []).append(triple)
    merged = []
    for group in groups.values():
        merged.append(
            MergedTriple(
                src_set=frozenset(t.src for t in group),
                expr=_merge_exprs(tuple(t.expr for t in group)),
                trg_set=frozenset(t.trg for t in group),
            )
        )
    return tuple(sorted(merged, key=lambda m: to_text(m.expr)))


def _merge_exprs(exprs: tuple[PathExpr, ...]) -> PathExpr:
    # members of one shape that carry no annotations are all equal: labels,
    # reversals, closures and ranges end here. Inference builds no union
    # (TUnion carries triples over), so the rest are compositions,
    # conjunctions and branches
    first = exprs[0]
    if not has_annotations(first):
        return first
    # position by position: each child, and each junction of a chain
    kids = [_merge_exprs(column) for column in zip(*map(children, exprs))]
    if isinstance(first, Concat):
        junctions = [
            None if column[0] is None else frozenset().union(*column)
            for column in zip(*(e.junctions for e in exprs))
        ]
        return Concat.chain(kids, junctions)
    return type(first)(*kids)


def end_label_set(expr: PathExpr, schema: GraphSchema, source: bool) -> frozenset[str]:
    """Schema-permitted labels of nodes a result pair can start from
    (``source``) or end at (not ``source``)."""
    if isinstance(expr, Label):
        return (schema.source_labels if source else schema.target_labels)(expr.name)
    if isinstance(expr, Reverse):
        return end_label_set(Label(expr.name), schema, not source)
    if isinstance(expr, Concat):
        return end_label_set(expr.factors[0 if source else -1], schema, source)
    if isinstance(expr, (Union, Conj)):
        sets = [end_label_set(op, schema, source) for op in expr.operands]
        return frozenset.union(*sets) if isinstance(expr, Union) else frozenset.intersection(*sets)
    if isinstance(expr, (BranchR, BranchL)):
        return end_label_set(expr.main, schema, source)
    if isinstance(expr, (TransClos, Repeat)):
        return end_label_set(expr.inner, schema, source)
    raise TypeError(f"not a path expression: {expr!r}")


def remove_redundant(merged: MergedTriple, schema: GraphSchema) -> MergedTriple:
    """Drop annotations that can never filter anything on conforming data.

    A junction annotation is vacuous when it covers every label the left
    side can deliver, or every label the right side accepts; either way the
    join enforces it again. Endpoint sets are emptied on the same grounds.
    """

    def prune(expr: PathExpr) -> PathExpr:
        if isinstance(expr, Concat):
            factors, junctions = expr.factors, list(expr.junctions)
            for i, labels in enumerate(junctions):
                if labels is not None and (
                    labels >= end_label_set(factors[i], schema, source=False)
                    or labels >= end_label_set(factors[i + 1], schema, source=True)
                ):
                    junctions[i] = None
            return Concat.chain(map(prune, factors), junctions)
        return map_children(expr, prune)

    expr = prune(merged.expr)
    src_set = merged.src_set
    if src_set and src_set >= end_label_set(merged.expr, schema, source=True):
        src_set = frozenset()
    trg_set = merged.trg_set
    if trg_set and trg_set >= end_label_set(merged.expr, schema, source=False):
        trg_set = frozenset()
    return MergedTriple(src_set=src_set, expr=expr, trg_set=trg_set)


class Fragment(Record):
    """Atoms produced by translating one annotated expression."""

    __slots__ = __match_args__ = ("relations", "labels")

    def __init__(
        self,
        relations: list[Relation] | None = None,
        labels: dict[str, frozenset[str]] | None = None,
    ):
        self.relations = [] if relations is None else relations
        self.labels = {} if labels is None else labels


def query_of(
    alpha: str, beta: str, expr: PathExpr, fresh: Iterator[str] | None = None
) -> Fragment:
    """Translate an annotated expression into atoms between two variables.

    Branch and conjunction operators at the top recurse with the endpoints
    they dictate, annotated or not: `a[b]` gives `(alpha, a, beta)` and
    `(beta, b, _g1)`. Surviving junction annotations split composition
    chains into separate relation atoms joined by fresh variables carrying
    label atoms. Any other annotation-free expression, a chain with plain
    branches inside such as `a/b[c]` included, stays a single relation atom.
    Fresh variables are drawn from ``fresh``; by default they are `_g1`,
    `_g2`, ... without ``alpha`` and ``beta``.
    """
    fragment = Fragment()
    if fresh is None:
        fresh = fresh_names("_g", {alpha, beta})
    _translate(alpha, beta, expr, fresh, fragment)
    return fragment


def _translate(alpha: str, beta: str, expr: PathExpr, fresh: Iterator[str], out: Fragment) -> None:
    if isinstance(expr, BranchR):
        gamma = next(fresh)
        _translate(alpha, beta, expr.main, fresh, out)
        _translate(beta, gamma, expr.test, fresh, out)
        return
    if isinstance(expr, BranchL):
        gamma = next(fresh)
        _translate(alpha, gamma, expr.test, fresh, out)
        _translate(alpha, beta, expr.main, fresh, out)
        return
    if isinstance(expr, Conj):
        for operand in expr.operands:
            _translate(alpha, beta, operand, fresh, out)
        return
    if not has_annotations(expr):
        out.relations.append(Relation(alpha, expr, beta))
    elif isinstance(expr, Concat):
        _translate_chain(alpha, beta, expr, fresh, out)
    else:
        raise ValueError(f"annotations in an untranslatable position: {to_text(expr)}")


def _translate_chain(
    alpha: str, beta: str, expr: PathExpr, fresh: Iterator[str], out: Fragment
) -> None:
    # a run of annotation-free factors is one relation atom; runs are cut at
    # every surviving junction, whose labels go on the fresh variable there,
    # and around every annotated factor (a branch holding annotations), which
    # recurses
    factors, junctions = expr.factors, expr.junctions
    var, start = alpha, 0
    for end, junction in enumerate(junctions, start=1):
        plain = not (has_annotations(factors[end - 1]) or has_annotations(factors[end]))
        if junction is None and plain:
            continue
        nxt = next(fresh)
        run = Concat.chain(factors[start:end], junctions[start : end - 1])
        _translate_run(var, nxt, run, fresh, out)
        if junction is not None:
            _meet(out.labels, nxt, junction)
        var, start = nxt, end
    run = Concat.chain(factors[start:], junctions[start:])
    _translate_run(var, beta, run, fresh, out)


def _translate_run(
    alpha: str, beta: str, run: PathExpr, fresh: Iterator[str], out: Fragment
) -> None:
    if has_annotations(run):
        _translate(alpha, beta, run, fresh, out)
    else:
        out.relations.append(Relation(alpha, run, beta))


def _meet(labels: dict[str, frozenset[str]], var: str, labs: frozenset[str]) -> frozenset[str]:
    """Conjoin ``labs`` onto the entry of ``var`` in ``labels`` and return it."""
    met = labels[var] & labs if var in labels else labs
    labels[var] = met
    return met


class RewriteOutcome(NamedTuple):
    """Enriched query plus, per (input disjunct index, relation index),
    whether the relation kept its original expression, and one inference
    log per relation in that order. An atom left alone has no steps; one
    cut off by the join work limit keeps the steps finished before it."""

    enriched: UcqtQuery
    reverted: dict[tuple[int, int], bool]
    warnings: tuple[str, ...]
    logs: tuple[InferenceLog, ...]


def _size(expr: PathExpr) -> int:
    return sum(1 for _ in walk(expr))


def rewrite(
    query: UcqtQuery,
    schema: GraphSchema,
    disjunct_limit: int = DEFAULT_DISJUNCT_LIMIT,
    path_limit: int = DEFAULT_PATH_LIMIT,
) -> RewriteOutcome:
    """Schema-enrich every relation atom of a query.

    Atoms whose enrichment adds nothing keep their simplified expression,
    repetitions included ("revert"), and so do the atoms reverted to bring a
    conjunct's product of alternatives within ``disjunct_limit``. Atoms unsatisfiable under the
    schema erase their conjunct with a warning; when every conjunct dies the
    result is the canonical empty query. The empty query rewrites to itself
    with no warning. A query `validate_query` refuses raises ValueError, and
    both limits must be at least 0.
    """
    for name, limit in (("path", path_limit), ("disjunct", disjunct_limit)):
        if limit < 0:
            raise ValueError(f"{name} limit must be at least 0, got {limit}")
    validate_query(query)
    warnings: list[str] = []
    taken = frozenset(query.head).union(*(c.variables() for c in query.disjuncts))
    fresh = fresh_names("_g", taken)

    def enrichment(rel: Relation, phi: PathExpr, log: InferenceLog) -> list[MergedTriple] | None:
        """Merged triples to replace the atom with, [] when the atom is
        unsatisfiable, or None when it keeps its simplified expression phi."""
        if has_annotations(phi):
            # the atom already carries junction labels; leave it alone
            return None
        try:
            triples = infer(phi, schema, path_limit, log)
        except InferenceOverflow as exc:
            warnings.append(f"{exc}; reverting ({rel.src_var}, ..., {rel.trg_var})")
            return None
        warnings.extend(log.warnings)
        if not triples:
            warnings.append(
                f"unsatisfiable: ({rel.src_var}, {to_text(rel.expr)}, {rel.trg_var}) "
                "matches nothing under the schema"
            )
            return []
        merged = [remove_redundant(m, schema) for m in merge_triples(triples)]
        if any(m.src_set or m.trg_set or has_annotations(m.expr) for m in merged):
            return merged
        # no alternative carries label information: keep them in one atom,
        # and only when their union is smaller than phi
        folded = Union(*(m.expr for m in merged))
        if _size(folded) >= _size(phi):
            return None
        return [MergedTriple(frozenset(), folded, frozenset())]

    reverted: dict[tuple[int, int], bool] = {}
    logs: list[InferenceLog] = []
    out_disjuncts: list[Conjunct] = []
    for d_index, conjunct in enumerate(query.disjuncts):
        phis = [simplify(rel.expr) for rel in conjunct.relations]
        per_atom_merged: list[list[MergedTriple] | None] = []
        for rel, phi in zip(conjunct.relations, phis):
            logs.append(InferenceLog())
            per_atom_merged.append(enrichment(rel, phi, logs[-1]))

        counts = [1 if merged is None else len(merged) for merged in per_atom_merged]
        while (product := math.prod(counts)) > disjunct_limit and max(counts) > 1:
            widest = counts.index(max(counts))
            rel = conjunct.relations[widest]
            warnings.append(
                f"{counts[widest]} alternatives for ({rel.src_var}, {to_text(rel.expr)}, "
                f"{rel.trg_var}) make {product} disjuncts and exceed the limit of "
                f"{disjunct_limit}; reverting"
            )
            counts[widest] = 1
            per_atom_merged[widest] = None
        for a_index, merged in enumerate(per_atom_merged):
            reverted[(d_index, a_index)] = merged is None
        if [] in per_atom_merged:
            continue

        per_atom: list[list[Fragment]] = []
        for rel, phi, merged in zip(conjunct.relations, phis, per_atom_merged):
            if merged is None:
                per_atom.append([Fragment([Relation(rel.src_var, phi, rel.trg_var)])])
                continue
            alternatives = []
            for m in merged:
                fragment = query_of(rel.src_var, rel.trg_var, m.expr, fresh)
                for var, labs in ((rel.src_var, m.src_set), (rel.trg_var, m.trg_set)):
                    if labs:
                        _meet(fragment.labels, var, labs)
                if all(fragment.labels.values()):
                    # otherwise endpoint sets clashed (same variable on both
                    # ends), and this alternative can never match
                    alternatives.append(fragment)
            per_atom.append(alternatives)

        generated: list[Conjunct] = []
        for combo in itertools.product(*per_atom):
            labels = conjunct.label_map()
            contradiction = None
            for fragment in combo:
                for var, labs in sorted(fragment.labels.items()):
                    if not _meet(labels, var, labs):
                        contradiction = var
            if contradiction is not None:
                warnings.append(
                    f"unsatisfiable: label sets for {contradiction!r} have empty intersection"
                )
                continue
            relations = [rel for fragment in combo for rel in fragment.relations]
            generated.append(
                Conjunct(
                    # translation can repeat a relation atom, as for both
                    # halves of `e0&e0`; conjoining it twice adds nothing
                    relations=tuple(dict.fromkeys(relations)),
                    labels=tuple(LabelAtom(v, l) for v, l in sorted(labels.items())),
                )
            )
        if not generated and conjunct.relations:
            warnings.append("conjunct dropped: no satisfiable alternative remains")
        generated.sort(key=conjunct_to_text)
        out_disjuncts.extend(generated)

    # a disjunct can recur, written twice or as another's unrolled closure;
    # the union keeps its first occurrence
    enriched = UcqtQuery(head=query.head, disjuncts=tuple(dict.fromkeys(out_disjuncts)))
    if query.disjuncts and not out_disjuncts:
        warnings.append("query is unsatisfiable under the schema; emitting the empty query")
    return RewriteOutcome(
        enriched=enriched,
        reverted=reverted,
        warnings=tuple(dict.fromkeys(warnings)),
        logs=tuple(logs),
    )
