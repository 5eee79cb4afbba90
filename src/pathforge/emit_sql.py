"""Recursive SQL emission over the two-column relational graph encoding.

Every edge label is a table with columns Sr and Tr (source and target node
ids); every node label is a table whose key column is Sr. A query renders in
one pass over its atoms as written, repetitions kept. One join, on shared
variables, serves a conjunct's atoms and label atoms, a chain's steps
(factor i binds node i - 1 to node i, and a junction label set is a node set
on its node) and a conjunction's operands (all binding the same two
variables). Every FROM item is one table to SQLite: a bare table or CTE, a
SELECT DISTINCT or compound subquery, which it never flattens into a join,
or a reversal or branch, which it flattens into one table. SQLite joins at
most 64 tables in one SELECT, so a join of more items nests them in runs of
at most 64, each a derived SELECT DISTINCT of the variables needed outside
it. It unites at most 500 terms in one compound SELECT, so a longer union,
or a query of more disjuncts, nests them in compound SELECTs of at most 500
terms. Within these limits nothing is nested.

Transitive closures become recursive CTEs. So does a range e{m,n}, m < n,
bounded in depth rather than unrolled: its CTE tags each pair with the
length d of its path, up to n, and the atom reads the distinct pairs of
depth d >= m. UNION keeps each (Sr, Tr, d) once, so the recursion ends.
A fixed power e{m,m} is the chain of m copies of e, whose ranges stay CTEs;
that chain is refused past MAX_EXPANSION factors, a range counting one. The
CTEs are named tc_1, tc_2, ... in post order, left to right; a closure that
recurs anywhere in the query reuses the CTE of its first occurrence, and so
does a range of the same body and upper bound. The numbering skips each name
that a schema label takes, in any case, since unquoted SQL names ignore
case: with an edge label `TC_1`, the first CTE is tc_2. For the same reason,
two schema labels that differ only in case, such as node `N` and edge `n`,
would name one table, and emission refuses such a schema.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

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
    expansion,
    walk,
)
from .query import Conjunct, UcqtQuery, fresh_names, validate_query
from .schema import GraphSchema

DIALECTS = ("postgres", "sqlite", "mysql")


class EmitError(ValueError):
    """Unknown dialect or target, a query label the schema lacks, or, for
    SQL, two schema labels that differ only in case."""


def check_labels(query: UcqtQuery, schema: GraphSchema) -> None:
    """Raise EmitError for the first label the schema lacks: per conjunct,
    its relation atoms in order (edge labels and junction sets as met), then
    its label atoms."""

    def require_nodes(labels: frozenset[str]) -> None:
        unknown = labels - schema.node_labels
        if unknown:
            raise EmitError(f"no node label {min(unknown)!r} in the schema")

    for conjunct in query.disjuncts:
        for rel in conjunct.relations:
            for sub in walk(rel.expr):
                if isinstance(sub, (Label, Reverse)) and sub.name not in schema.edge_labels:
                    raise EmitError(f"no edge label {sub.name!r} in the schema")
                if isinstance(sub, Concat):
                    for labels in filter(None, sub.junctions):
                        require_nodes(labels)
        for atom in conjunct.labels:
            require_nodes(atom.labels)


def _node_set_sql(labels: frozenset[str]) -> str:
    return " UNION ".join(f"SELECT Sr FROM {label}" for label in sorted(labels))


class _Renderer:
    """Renders the atoms of one query, collecting the recursive CTEs of its
    closures."""

    def __init__(self, schema: GraphSchema):
        self.schema = schema
        # unquoted SQL names ignore case, so each label's table must differ
        # from the others in more than case, and no CTE may take a label's
        # name in any case
        taken: dict[str, str] = {}
        for label in sorted(schema.node_labels | schema.edge_labels):
            other = taken.setdefault(label.lower(), label)
            if other != label:
                raise EmitError(
                    f"schema labels {other!r} and {label!r} differ only in case, "
                    "so their SQL tables would clash"
                )
        self.fresh = fresh_names("tc_", taken.keys())
        # the base SELECT of each closure, and the FROM item and upper bound
        # of each range -> its CTE's name; and the CTE texts in order
        self.cte_names: dict[object, str] = {}
        self.ctes: list[str] = []
        # a node recurs across atoms and disjuncts; it is rendered once
        self.pair = cache(self.pair)

    def _cte(self, key: object, define: Callable[[str], str]) -> str:
        """The name of the CTE registered under key; on first use, a fresh
        name, under which the CTE text define(name) is registered."""
        name = self.cte_names.get(key)
        if name is None:
            name = self.cte_names[key] = next(self.fresh)
            self.ctes.append(define(name))
        return name

    def pair(self, expr: PathExpr) -> tuple[str, str]:
        """A self-contained SELECT yielding columns Sr, Tr, and the same
        relation as a FROM item that is one table to SQLite: a bare table or
        CTE name, a SELECT DISTINCT or compound subquery, which SQLite never
        flattens into a join, or a subquery that it flattens into one table."""
        if isinstance(expr, Label):
            return f"SELECT Sr, Tr FROM {expr.name}", expr.name
        if isinstance(expr, TransClos):
            # one rendering serves both the base and the recursive join, so
            # the closures nested inside register once
            select, item = self.pair(expr.inner)
            if isinstance(expr.inner, Union) and len(expr.inner.operands) >= _MAX_COMPOUND:
                # the recursive SELECT is one more compound term
                select = f"SELECT * FROM ({select}) AS u"
            name = self._cte(
                select,
                lambda name: f"{name}(Sr, Tr) AS (\n"
                f"  {select}\n"
                "  UNION\n"
                f"  SELECT {name}.Sr, s.Tr FROM {name} JOIN {item} AS s ON {name}.Tr = s.Sr\n"
                ")",
            )
            return f"SELECT Sr, Tr FROM {name}", name
        if isinstance(expr, Repeat):
            lo, hi = expr.lo, expr.hi
            if lo == hi:
                # a fixed power is its chain
                return self.pair(Concat.chain([expr.inner] * lo, [None] * (lo - 1)))
            # each pair tagged with its path length d up to hi; ranges of
            # one body and upper bound share their CTE
            item = self.pair(expr.inner)[1]
            name = self._cte(
                (item, hi),
                lambda name: f"{name}(Sr, Tr, d) AS (\n"
                f"  SELECT b.Sr, b.Tr, 1 FROM {item} AS b\n"
                "  UNION\n"
                f"  SELECT {name}.Sr, s.Tr, {name}.d + 1 FROM {name} JOIN {item} AS s"
                f" ON {name}.Tr = s.Sr WHERE {name}.d < {hi}\n"
                ")",
            )
            select = f"SELECT DISTINCT Sr, Tr FROM {name}" + (f" WHERE d >= {lo}" if lo > 1 else "")
            return select, f"({select})"
        if isinstance(expr, Reverse):
            select = f"SELECT Tr AS Sr, Sr AS Tr FROM {expr.name}"
        elif isinstance(expr, Concat):
            # paths through the chain repeat their endpoint pairs; the
            # DISTINCT projection keeps later joins from multiplying them
            items: list[_Item] = []
            for i, (factor, junction) in enumerate(zip(expr.factors, (*expr.junctions, None)), 1):
                items.append((f"s{i}", self.pair(factor)[1], [(i - 1, f"s{i}.Sr"), (i, f"s{i}.Tr")]))
                if junction is not None:
                    items.append((f"n{i}", f"({_node_set_sql(junction)})", [(i, f"n{i}.Sr")]))
            select = _select(items, [(0, "Sr"), (len(expr.factors), "Tr")])
        elif isinstance(expr, Union):
            select = _compound([self.pair(op)[0] for op in expr.operands], " UNION ")
        elif isinstance(expr, Conj):
            items = [
                (f"p{i}", self.pair(op)[1], [(0, f"p{i}.Sr"), (1, f"p{i}.Tr")])
                for i, op in enumerate(expr.operands, 1)
            ]
            select = _select(items, [(0, "Sr"), (1, "Tr")])
        elif isinstance(expr, (BranchR, BranchL)):
            main, test = self.pair(expr.main)[0], self.pair(expr.test)[0]
            # a right branch tests the main's target, a left branch its source
            column = "Tr" if isinstance(expr, BranchR) else "Sr"
            select = (
                f"SELECT p1.Sr AS Sr, p1.Tr AS Tr FROM ({main}) AS p1 "
                f"WHERE EXISTS (SELECT 1 FROM ({test}) AS p2 WHERE p2.Sr = p1.{column})"
            )
        else:
            raise TypeError(f"not a renderable expression: {expr!r}")
        return select, f"({select})"

    def conjunct(self, conjunct: Conjunct, head: tuple[str, ...]) -> str:
        items: list[_Item] = []
        for index, rel in enumerate(conjunct.relations, start=1):
            alias = f"e{index}"
            binds = [(rel.src_var, f"{alias}.Sr"), (rel.trg_var, f"{alias}.Tr")]
            expansion(rel.expr, unroll_ranges=False)
            items.append((alias, self.pair(rel.expr)[1], binds))

        # each label atom is a node set, and so is each head variable that no
        # atom mentions, over every node label: it ranges over every node
        node_sets = sorted((atom.var, atom.labels) for atom in conjunct.labels)
        mentioned = conjunct.variables()
        node_sets += [(var, self.schema.node_labels) for var in head if var not in mentioned]
        for index, (var, labels) in enumerate(node_sets, start=1):
            alias = f"n{index}"
            items.append((alias, f"({_node_set_sql(labels)})", [(var, f"{alias}.Sr")]))
        return _select(items, [(var, var) for var in head], "\n  ")


# SQLite joins at most 64 tables in one SELECT, and unites at most 500 terms
# in one compound SELECT; every FROM item here is one table to it
_MAX_JOIN = 64
_MAX_COMPOUND = 500


def _compound(selects: list[str], union: str) -> str:
    """The UNION of the selects; past _MAX_COMPOUND of them, of nested
    compound SELECTs of at most _MAX_COMPOUND terms each."""
    while len(selects) > _MAX_COMPOUND:
        selects = [
            f"SELECT * FROM ({union.join(selects[i : i + _MAX_COMPOUND])}) AS u"
            for i in range(0, len(selects), _MAX_COMPOUND)
        ]
    return union.join(selects)


# a FROM item: its alias, its text, and the (variable, column) pairs it
# binds; a query's variables are names, a chain's its node positions
_Item = tuple[str, str, list[tuple[str | int, str]]]


def _select(items: list[_Item], outputs: list[tuple[str | int, str]], sep: str = " ") -> str:
    """A SELECT DISTINCT of each output variable, under its output name, over
    the items joined on their shared variables, its clauses separated by
    sep. Past _MAX_JOIN items, they are first nested in runs of at most
    _MAX_JOIN, each a derived SELECT DISTINCT of the variables needed outside
    it, its columns named v1, v2, ...; a one-column item moves next to the
    first item of several columns that binds its variable, so that no run
    crosses it in alone."""
    if len(items) > _MAX_JOIN:
        first: dict[str | int, int] = {}
        for position, (_, _, binds) in enumerate(items):
            for var, _ in binds if len(binds) > 1 else ():
                first.setdefault(var, position)
        place = [
            (first.get(binds[0][0], position) if len(binds) == 1 else position, position)
            for position, (_, _, binds) in enumerate(items)
        ]
        items = [items[position] for _, position in sorted(place)]
        groups = [items[i : i + _MAX_JOIN] for i in range(0, len(items), _MAX_JOIN)]
        uses = [{var for _, _, binds in group for var, _ in binds} for group in groups]
        wanted = {var for var, _ in outputs}
        items = []
        for index, (group, own) in enumerate(zip(groups, uses), start=1):
            elsewhere = wanted.union(*(other for other in uses if other is not own))
            # a group that shares no variable still filters by being empty
            needed = sorted(own & elsewhere) or [min(own)]
            names = [(var, f"v{k}") for k, var in enumerate(needed, start=1)]
            text = "(" + _select(group, names, sep).replace("\n", "\n  ") + ")"
            items.append((f"g{index}", text, [(var, f"g{index}.{name}") for var, name in names]))
        return _select(items, outputs, sep)

    var_column: dict[str | int, str] = {}
    clauses: list[str] = []
    where: list[str] = []
    for index, (alias, item, binds) in enumerate(items):
        conditions = []
        for var, column in binds:
            if var not in var_column:
                var_column[var] = column
            elif len(binds) > 1:
                conditions.append(f"{var_column[var]} = {column}")
            else:
                # a one-column item, such as a node set, names its own first
                conditions.append(f"{column} = {var_column[var]}")
        if index == 0:
            where.extend(conditions)
            clauses.append(f"FROM {item} AS {alias}")
        elif conditions:
            clauses.append(f"JOIN {item} AS {alias} ON " + " AND ".join(conditions))
        else:
            clauses.append(f"CROSS JOIN {item} AS {alias}")
    if where:
        clauses.append("WHERE " + " AND ".join(where))
    select = ", ".join(f"{var_column[var]} AS {name}" for var, name in outputs)
    return f"SELECT DISTINCT {select}" + "".join(sep + clause for clause in clauses)


_VIEW_PREAMBLE = {
    "postgres": "CREATE TEMPORARY VIEW query_result AS",
    "sqlite": "CREATE VIEW query_result AS",
    "mysql": "CREATE OR REPLACE VIEW query_result AS",
}


def emit_sql(
    query: UcqtQuery, schema: GraphSchema, dialect: str = "postgres", as_view: bool = False
) -> str:
    """Render a query as SQL text over the relational graph encoding.

    The three dialects share the inline WITH RECURSIVE form; they differ only
    in the view statement used when ``as_view`` is set.
    """
    if dialect not in DIALECTS:
        raise EmitError(f"unknown dialect {dialect!r}; expected one of {', '.join(DIALECTS)}")
    validate_query(query)
    check_labels(query, schema)
    renderer = _Renderer(schema)
    if not query.disjuncts:
        columns = ", ".join(f"NULL AS {var}" for var in query.head)
        source = " FROM DUAL" if dialect == "mysql" else ""
        body = f"SELECT {columns}{source} WHERE 1 = 0;"
        return _wrap_view(body, dialect, as_view)
    selects = [renderer.conjunct(conjunct, query.head) for conjunct in query.disjuncts]
    body = _compound(selects, "\nUNION\n") + ";"
    if renderer.ctes:
        body = f"WITH RECURSIVE {', '.join(renderer.ctes)}\n" + body
    return _wrap_view(body, dialect, as_view)


def _wrap_view(body: str, dialect: str, as_view: bool) -> str:
    if not as_view:
        return body + "\n"
    return _VIEW_PREAMBLE[dialect] + "\n" + body + "\n"
