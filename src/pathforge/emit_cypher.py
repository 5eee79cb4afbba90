"""Cypher emission for the chain-shaped query subset.

A query renders iff every relation atom's expression is a chain of single
relationship steps: edge labels, reversed edge labels, label alternations,
and closures or bounded repetitions of those. Conjunction and branch
operators have no Cypher counterpart and yield a structured report naming
the first offending construct instead of text.

The text can return fewer rows than the query means. openCypher binds each
relationship at most once per MATCH clause (relationship isomorphism), and
a conjunct is one MATCH, while a query's paths are walks, which may reuse
an edge. `isMarriedTo/isMarriedTo` or `isMarriedTo{2,2}` over a single
self-loop, which `gen_db` can generate, has a walk and no Cypher match; so
does a conjunct whose two atoms match the same edge. A closure alone, as
a whole atom, loses no pair, since a shortest walk reuses no edge. The
tests compare the emitted text as text; no Cypher engine runs it.
"""

from __future__ import annotations

from typing import NamedTuple

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
    to_text,
)
from .emit_sql import check_labels
from .query import UcqtQuery, validate_query
from .schema import GraphSchema


class UnsupportedReport(NamedTuple):
    construct: str
    detail: str

    def __str__(self) -> str:
        return f"not expressible in Cypher: {self.construct} in {self.detail}"


class _Unsupported(Exception):
    def __init__(self, construct: str, detail: str):
        super().__init__(construct)
        self.report = UnsupportedReport(construct, detail)


def _relationship_types(expr: PathExpr) -> tuple[str, list[str]]:
    """Direction plus type names for a single relationship step."""
    steps = expr.operands if isinstance(expr, Union) else (expr,)
    for step in steps:
        if not isinstance(step, (Label, Reverse)):
            raise _Unsupported("union of composite expressions", to_text(step))
        if type(step) is not type(steps[0]):
            raise _Unsupported("union of mixed directions", to_text(expr))
    return "fwd" if isinstance(steps[0], Label) else "bwd", [step.name for step in steps]


def _relationship(expr: PathExpr) -> str:
    """The relationship pattern of one chain factor."""
    hops = ""
    if isinstance(expr, (TransClos, Repeat)):
        closure = isinstance(expr, TransClos)
        if not isinstance(expr.inner, (Label, Reverse, Union)):
            kind = "closure" if closure else "repetition"
            raise _Unsupported(f"{kind} of a composite path", to_text(expr))
        hops = "*1.." if closure else f"*{expr.lo}..{expr.hi}"
        expr = expr.inner
    elif isinstance(expr, Conj):
        raise _Unsupported("conjunction", to_text(expr))
    elif isinstance(expr, (BranchR, BranchL)):
        raise _Unsupported("branch", to_text(expr))
    direction, types = _relationship_types(expr)
    text = "|".join(types) + hops
    if direction == "fwd":
        return f"-[:{text}]->"
    return f"<-[:{text}]-"


def _node(name: str | None, labels: frozenset[str] | None) -> str:
    label_text = ":" + "|".join(sorted(labels)) if labels else ""
    return f"({name or ''}{label_text})"


def emit_cypher(query: UcqtQuery, schema: GraphSchema) -> str | UnsupportedReport:
    """Cypher text for a chain-shaped query, or a report saying why not."""
    validate_query(query)
    check_labels(query, schema)
    if not query.disjuncts:
        columns = ", ".join(f"NULL AS {var}" for var in query.head)
        return f"RETURN DISTINCT {columns} LIMIT 0;\n"
    blocks = []
    try:
        for conjunct in query.disjuncts:
            blocks.append(_render_conjunct(query, conjunct))
    except _Unsupported as exc:
        return exc.report
    return "\nUNION\n".join(blocks) + "\n"


def _render_conjunct(query: UcqtQuery, conjunct) -> str:
    label_map = conjunct.label_map()
    labeled: set[str] = set()

    def node(var: str) -> str:
        if var in labeled or var not in label_map:
            return _node(var, None)
        labeled.add(var)
        return _node(var, label_map[var])

    patterns = []
    mentioned: set[str] = set()
    for rel in conjunct.relations:
        factors, junctions = (rel.expr,), ()
        if isinstance(rel.expr, Concat):
            factors, junctions = rel.expr.factors, rel.expr.junctions
        text = node(rel.src_var) + _relationship(factors[0])
        for junction, factor in zip(junctions, factors[1:]):
            text += _node(None, junction) + _relationship(factor)
        patterns.append(text + node(rel.trg_var))
        mentioned.update((rel.src_var, rel.trg_var))
    # a variable no relation atom mentions is a node pattern of its own,
    # labeled when a label atom names it
    for var in (*sorted(label_map), *query.head):
        if var not in mentioned:
            patterns.append(node(var))
            mentioned.add(var)
    head = ", ".join(query.head)
    return "MATCH " + ", ".join(patterns) + f"\nRETURN DISTINCT {head};"
