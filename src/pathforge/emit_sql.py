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
that chain is refused past MAX_EXPANSION factors, a range counting one. This
is the one stage that writes a power out: rendered as a range's CTE, the
baseline SQL of the first 600 benchmark corpus queries of seed 1 took 6.6%
more SQLite steps.

Two rules keep the engine from doing work twice or for nothing:

- A label atom that the conjunct's relation atoms already imply emits no
  node-set join. Each variable's possible node labels flow over the schema
  through the relation atoms alone, forward and backward through each
  atom's expression, until no set shrinks; a closure or range reaches what
  its body reaches in one or more steps, a fixpoint over label sets, and
  one memo per statement keeps each (node, labels, direction) to one
  computation. A label atom whose variable's labels are a subset of its own
  is skipped. Label atoms are never premises: one would vouch for itself.
  Like enrichment, this assumes a database that conforms to the schema,
  which `pathforge check` verifies; on any other, a skipped atom's rows
  come back unfiltered. (`rewriter.end_label_set` stays context-free: it
  decides the enriched text, and making it exact would change the goldens,
  which belongs with dropping vacuous junction sets, ROADMAP item 1.)
- A chain, conjunction or union that the statement uses from two or more
  places, relation atoms in any disjunct or parent nodes, is one
  non-recursive CTE, read by name at each use. One pass over the distinct
  nodes counts the uses; a closure's or range's body counts once for its
  base and its step, and labels, reversals, branches and range reads stay
  inline.

The CTEs are named tc_1, tc_2, ... in post order, left to right; a closure
that recurs anywhere in the query reuses the CTE of its first occurrence,
and so does a range of the same body and upper bound. The numbering skips
each name that a schema label takes, in any case, since unquoted SQL names
ignore case: with an edge label `TC_1`, the first CTE is tc_2. For the same
reason, two schema labels that differ only in case, such as node `N` and
edge `n`, would name one table, and emission refuses such a schema.
"""

from __future__ import annotations

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
    children,
    expansion,
    powers,
    walk,
)
from .query import Conjunct, LabelAtom, UcqtQuery, fresh_names, validate_query
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
    """Renders the atoms of one query, collecting the CTEs of its closures,
    its ranges and its shared nodes."""

    def __init__(self, schema: GraphSchema, query: UcqtQuery):
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
        # the base SELECT of each closure, the FROM item and upper bound of
        # each range, and each shared node -> its CTE's name; the CTE texts
        # in order
        self.cte_names: dict[object, str] = {}
        self.ctes: list[str] = []
        # each node -> its pair(), rendered once however often it recurs;
        # (node, start labels, backward) -> its flow()
        self.pairs: dict[PathExpr, tuple[str, str]] = {}
        self.flows: dict[tuple[PathExpr, frozenset[str], bool], frozenset[str]] = {}
        self.shared = _shared(query)

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
        done = self.pairs.get(expr)
        if done is not None:
            return done
        if isinstance(expr, Label):
            done = f"SELECT Sr, Tr FROM {expr.name}", expr.name
        elif isinstance(expr, TransClos):
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
            done = f"SELECT Sr, Tr FROM {name}", name
        elif isinstance(expr, Repeat) and expr.lo == expr.hi:
            # a fixed power is its chain
            done = self.pair(powers(expr, expr.inner))
        elif isinstance(expr, Repeat):
            # each pair tagged with its path length d up to hi; ranges of
            # one body and upper bound share their CTE
            lo, hi = expr.lo, expr.hi
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
            done = select, f"({select})"
        elif isinstance(expr, Reverse):
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
        if done is None and expr in self.shared:
            # computed once, and read by name wherever it is used
            name = self._cte(expr, lambda name: f"{name}(Sr, Tr) AS (\n  {select}\n)")
            done = f"SELECT Sr, Tr FROM {name}", name
        elif done is None:
            done = select, f"({select})"
        self.pairs[expr] = done
        return done

    def flow(self, expr: PathExpr, start: frozenset[str], backward: bool) -> frozenset[str]:
        """The node labels a path of expr can reach from a node of a label in
        start, under the schema: its targets' labels, or its sources' when
        backward. A closure or range reaches what its body reaches in one or
        more steps, found as a fixpoint over label sets."""
        if isinstance(expr, (Label, Reverse)):
            # one step needs no memo
            arcs = self.schema.label_arcs[expr.name, backward != isinstance(expr, Reverse)]
            return frozenset().union(*[arcs[label] for label in start if label in arcs])
        if not start:
            return start
        key = (expr, start, backward)
        reached = self.flows.get(key)
        if reached is not None:
            return reached
        if isinstance(expr, Concat):
            # a junction's labels confine the node between its two factors
            factors, junctions = expr.factors, (*expr.junctions, None)
            if backward:
                factors, junctions = factors[::-1], (*expr.junctions[::-1], None)
            reached = start
            for factor, junction in zip(factors, junctions):
                reached = self.flow(factor, reached, backward)
                if junction is not None:
                    reached &= junction
        elif isinstance(expr, Union):
            reached = frozenset().union(*[self.flow(op, start, backward) for op in expr.operands])
        elif isinstance(expr, Conj):
            sets = [self.flow(op, start, backward) for op in expr.operands]
            reached = frozenset.intersection(*sets)
        elif isinstance(expr, (BranchR, BranchL)):
            # the tested end carries a label that a test path starts from
            tested = self.flow(expr.test, self.schema.node_labels, True)
            if backward == isinstance(expr, BranchR):
                reached = self.flow(expr.main, start & tested, backward)
            else:
                reached = self.flow(expr.main, start, backward) & tested
        elif isinstance(expr, (TransClos, Repeat)):
            reached = self.flow(expr.inner, start, backward)
            more = reached | self.flow(expr.inner, reached, backward)
            while more != reached:
                reached = more
                more = reached | self.flow(expr.inner, reached, backward)
        else:
            raise TypeError(f"not a renderable expression: {expr!r}")
        self.flows[key] = reached
        return reached

    def implied(self, conjunct: Conjunct) -> set[LabelAtom]:
        """The label atoms of the conjunct that its relation atoms imply, and
        that so filter nothing. Each variable of a relation atom can carry
        the node labels that flow to it through the relation atoms alone,
        forward and backward, narrowed until no set shrinks or every label
        atom on such a variable is implied; a label atom is never a premise."""
        every = self.schema.node_labels
        labels = {var: every for rel in conjunct.relations for var in (rel.src_var, rel.trg_var)}
        candidates = {atom for atom in conjunct.labels if atom.var in labels}
        implied = {atom for atom in candidates if every <= atom.labels}
        changed = True
        while changed:
            changed = False
            for rel in conjunct.relations:
                for var, other, backward in (
                    (rel.trg_var, rel.src_var, False),
                    (rel.src_var, rel.trg_var, True),
                ):
                    if implied == candidates:
                        return implied
                    narrowed = labels[var] & self.flow(rel.expr, labels[other], backward)
                    if narrowed != labels[var]:
                        # the sets only shrink, so an implied atom stays implied
                        labels[var], changed = narrowed, True
                        implied |= {a for a in candidates if a.var == var and narrowed <= a.labels}
        return implied

    def conjunct(self, conjunct: Conjunct, head: tuple[str, ...]) -> str:
        items: list[_Item] = []
        for index, rel in enumerate(conjunct.relations, start=1):
            alias = f"e{index}"
            binds = [(rel.src_var, f"{alias}.Sr"), (rel.trg_var, f"{alias}.Tr")]
            items.append((alias, self.pair(rel.expr)[1], binds))

        # each label atom that the relation atoms do not imply is a node set,
        # and so is each head variable that no atom mentions, over every node
        # label: it ranges over every node
        implied = self.implied(conjunct) if conjunct.labels else set()
        node_sets = sorted(
            (atom.var, atom.labels) for atom in conjunct.labels if atom not in implied
        )
        mentioned = conjunct.variables()
        node_sets += [(var, self.schema.node_labels) for var in head if var not in mentioned]
        for index, (var, labels) in enumerate(node_sets, start=1):
            alias = f"n{index}"
            items.append((alias, f"({_node_set_sql(labels)})", [(var, f"{alias}.Sr")]))
        return _select(items, [(var, var) for var in head], "\n  ")


def _shared(query: UcqtQuery) -> set[PathExpr]:
    """The chains, conjunctions and unions that the query's rendering uses
    from two or more places, relation atoms or parent nodes, counted in one
    pass over the distinct nodes. A closure's or range's body counts once for
    its base and its step."""
    stack = []
    for conjunct in query.disjuncts:
        for rel in conjunct.relations:
            # a fixed power's chain is refused before it is built
            expansion(rel.expr, unroll_ranges=False)
            stack.append(rel.expr)
    seen: set[PathExpr] = set()
    shared: set[PathExpr] = set()
    while stack:
        expr = stack.pop()
        while isinstance(expr, Repeat) and expr.lo == expr.hi:
            # a fixed power renders as its chain, e{1,1} as e
            expr = powers(expr, expr.inner)
        if expr not in seen:
            seen.add(expr)
            stack.extend(children(expr))
        elif isinstance(expr, (Concat, Conj, Union)):
            shared.add(expr)
    return shared


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
    in the view statement used when ``as_view`` is set. A label atom that the
    relation atoms imply is skipped, and a chain, conjunction or union used
    from two or more places is one CTE (see the module docstring); the text
    returns the query's rows on a database that conforms to the schema.
    """
    if dialect not in DIALECTS:
        raise EmitError(f"unknown dialect {dialect!r}; expected one of {', '.join(DIALECTS)}")
    validate_query(query)
    check_labels(query, schema)
    renderer = _Renderer(schema, query)
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
