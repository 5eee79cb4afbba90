"""Query structures: a union of conjuncts over relation and label atoms,
plus the fresh-name generator of the rewriter and the SQL emitter."""

from __future__ import annotations

import itertools
from collections.abc import Set
from typing import Iterator, NamedTuple

from .ast import PathExpr, to_text


class Relation(NamedTuple):
    src_var: str
    expr: PathExpr
    trg_var: str


class LabelAtom(NamedTuple):
    var: str
    labels: frozenset[str]


class Conjunct(NamedTuple):
    relations: tuple[Relation, ...]
    labels: tuple[LabelAtom, ...] = ()

    def variables(self) -> frozenset[str]:
        out = {atom.var for atom in self.labels}
        for rel in self.relations:
            out.add(rel.src_var)
            out.add(rel.trg_var)
        return frozenset(out)

    def label_map(self) -> dict[str, frozenset[str]]:
        """Each labeled variable's label set: a valid conjunct has at most
        one label atom per variable (see `validate_query`)."""
        return {atom.var: atom.labels for atom in self.labels}


class UcqtQuery(NamedTuple):
    """Head variables plus a union of conjuncts.

    An empty disjunct tuple is the canonical empty query (written `EMPTY` in
    the textual syntax); it returns no rows on any database. Parsed queries
    always carry at least one conjunct.
    """

    head: tuple[str, ...]
    disjuncts: tuple[Conjunct, ...]


def fresh_names(prefix: str, taken: Set[str]) -> Iterator[str]:
    """`prefix1`, `prefix2`, ... in order, skipping each name in ``taken``."""
    for counter in itertools.count(1):
        name = f"{prefix}{counter}"
        if name not in taken:
            yield name


def validate_query(query: UcqtQuery) -> None:
    """Check structural invariants; raises ValueError on the first breach."""
    if not query.head:
        raise ValueError("query head must name at least one variable")
    if len(set(query.head)) != len(query.head):
        raise ValueError("duplicate head variable")
    for conjunct in query.disjuncts:
        if not conjunct.relations and not conjunct.labels:
            raise ValueError("conjunct has no atoms")
        seen = set()
        for atom in conjunct.labels:
            if not atom.labels:
                raise ValueError(f"empty label set on variable {atom.var!r}")
            if atom.var in seen:
                raise ValueError(f"duplicate label atom for variable {atom.var!r}")
            seen.add(atom.var)


def conjunct_to_text(conjunct: Conjunct) -> str:
    atoms = [f"({rel.src_var}, {to_text(rel.expr)}, {rel.trg_var})" for rel in conjunct.relations]
    atoms.extend(
        f"{atom.var}:{{{','.join(sorted(atom.labels))}}}"
        for atom in sorted(conjunct.labels, key=lambda a: a.var)
    )
    return " && ".join(atoms)


def query_to_text(query: UcqtQuery) -> str:
    """Canonical text form; stable under parse/print round-trips."""
    head = ",".join(query.head)
    if not query.disjuncts:
        return f"{head} <- EMPTY"
    return f"{head} <- " + " || ".join(conjunct_to_text(c) for c in query.disjuncts)
