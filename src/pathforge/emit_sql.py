"""Recursive SQL emission over the two-column relational graph encoding.

Every edge label is a table with columns Sr and Tr (source and target node
ids); every node label is a table whose key column is Sr. A query compiles
to an explicit join plan first: each relation atom becomes a chain of pair
sources with optional junction label filters, transitive closures become
recursive CTEs named tc_1, tc_2, ... in traversal order, and label atoms
become node-table semi-joins. The same plan drives both the SQL renderer
and a small interpreter, on the reference evaluator's compose, closure and
join, used to cross-check the translation against the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    AnnConcat,
    BranchL,
    BranchR,
    Concat,
    Conj,
    Label,
    PathExpr,
    Reverse,
    TransClos,
    Union,
    desugar,
    flatten_chain,
)
from .evaluator import Pair, _closure_delta, _compose, _join_atoms
from .query import UcqtQuery
from .schema import GraphDB, GraphSchema

DIALECTS = ("postgres", "sqlite", "mysql")


class EmitError(ValueError):
    """Unknown dialect, or a label with no table in the schema encoding."""


@dataclass(frozen=True)
class TableScan:
    label: str


@dataclass(frozen=True)
class ReverseScan:
    label: str


@dataclass(frozen=True)
class CteRef:
    name: str


@dataclass(frozen=True)
class PairUnion:
    parts: tuple["PairPlan", ...]


@dataclass(frozen=True)
class PairConj:
    left: "PairPlan"
    right: "PairPlan"


@dataclass(frozen=True)
class PairBranch:
    main: "PairPlan"
    test: "PairPlan"
    at_target: bool  # True: test leaves the main's target; False: its source


@dataclass(frozen=True)
class Step:
    source_filter: frozenset[str] | None
    plan: "PairPlan"


@dataclass(frozen=True)
class ChainPlan:
    steps: tuple[Step, ...]


PairPlan = TableScan | ReverseScan | CteRef | PairUnion | PairConj | PairBranch | ChainPlan


@dataclass(frozen=True)
class Cte:
    name: str
    inner: PairPlan


@dataclass(frozen=True)
class AtomPlan:
    src_var: str
    trg_var: str
    chain: ChainPlan


@dataclass(frozen=True)
class ConjunctPlan:
    atoms: tuple[AtomPlan, ...]
    labels: tuple[tuple[str, frozenset[str]], ...]


@dataclass(frozen=True)
class QueryPlan:
    head: tuple[str, ...]
    conjuncts: tuple[ConjunctPlan, ...]
    ctes: tuple[Cte, ...]


class _PlanBuilder:
    def __init__(self, schema: GraphSchema):
        self.schema = schema
        self.ctes: list[Cte] = []

    def check_edge(self, label: str) -> None:
        if label not in self.schema.edge_labels:
            raise EmitError(f"no edge table for label {label!r}")

    def check_nodes(self, labels: frozenset[str]) -> None:
        unknown = labels - self.schema.node_labels
        if unknown:
            raise EmitError(f"no node table for label {sorted(unknown)[0]!r}")

    def pair_plan(self, expr: PathExpr) -> PairPlan:
        if isinstance(expr, Label):
            self.check_edge(expr.name)
            return TableScan(expr.name)
        if isinstance(expr, Reverse):
            self.check_edge(expr.name)
            return ReverseScan(expr.name)
        if isinstance(expr, (Concat, AnnConcat)):
            factors, junctions = flatten_chain(expr)
            steps = [Step(None, self.pair_plan(factors[0]))]
            for junction, factor in zip(junctions, factors[1:]):
                if junction is not None:
                    self.check_nodes(junction)
                steps.append(Step(junction, self.pair_plan(factor)))
            return ChainPlan(tuple(steps))
        if isinstance(expr, Union):
            parts: list[PairPlan] = []
            for operand in (expr.left, expr.right):
                plan = self.pair_plan(operand)
                parts.extend(plan.parts if isinstance(plan, PairUnion) else (plan,))
            return PairUnion(tuple(parts))
        if isinstance(expr, Conj):
            return PairConj(self.pair_plan(expr.left), self.pair_plan(expr.right))
        if isinstance(expr, BranchR):
            return PairBranch(self.pair_plan(expr.main), self.pair_plan(expr.test), True)
        if isinstance(expr, BranchL):
            return PairBranch(self.pair_plan(expr.main), self.pair_plan(expr.test), False)
        if isinstance(expr, TransClos):
            inner = self.pair_plan(expr.inner)
            name = f"tc_{len(self.ctes) + 1}"
            self.ctes.append(Cte(name, inner))
            return CteRef(name)
        raise TypeError(f"not a plannable expression: {expr!r}")


def build_plan(query: UcqtQuery, schema: GraphSchema) -> QueryPlan:
    """Compile a query to the join-plan form shared by renderer and tests."""
    builder = _PlanBuilder(schema)
    conjuncts = []
    for conjunct in query.disjuncts:
        atoms = []
        for rel in conjunct.relations:
            plan = builder.pair_plan(desugar(rel.expr))
            if not isinstance(plan, ChainPlan):
                plan = ChainPlan((Step(None, plan),))
            atoms.append(AtomPlan(rel.src_var, rel.trg_var, plan))
        labels = []
        for atom in conjunct.labels:
            builder.check_nodes(atom.labels)
            labels.append((atom.var, atom.labels))
        conjuncts.append(ConjunctPlan(tuple(atoms), tuple(sorted(labels))))
    return QueryPlan(head=query.head, conjuncts=tuple(conjuncts), ctes=tuple(builder.ctes))


# --- SQL rendering ---


def _node_set_sql(labels: frozenset[str]) -> str:
    return " UNION ".join(f"SELECT Sr FROM {label}" for label in sorted(labels))


def _pair_sql(plan: PairPlan) -> str:
    """One self-contained SELECT yielding columns Sr, Tr."""
    if isinstance(plan, TableScan):
        return f"SELECT Sr, Tr FROM {plan.label}"
    if isinstance(plan, ReverseScan):
        return f"SELECT Tr AS Sr, Sr AS Tr FROM {plan.label}"
    if isinstance(plan, CteRef):
        return f"SELECT Sr, Tr FROM {plan.name}"
    if isinstance(plan, PairUnion):
        return " UNION ".join(_pair_sql(part) for part in plan.parts)
    if isinstance(plan, PairConj):
        return (
            f"SELECT p1.Sr AS Sr, p1.Tr AS Tr FROM ({_pair_sql(plan.left)}) AS p1 "
            f"JOIN ({_pair_sql(plan.right)}) AS p2 ON p1.Sr = p2.Sr AND p1.Tr = p2.Tr"
        )
    if isinstance(plan, PairBranch):
        column = "Tr" if plan.at_target else "Sr"
        return (
            f"SELECT p1.Sr AS Sr, p1.Tr AS Tr FROM ({_pair_sql(plan.main)}) AS p1 "
            f"WHERE EXISTS (SELECT 1 FROM ({_pair_sql(plan.test)}) AS p2 "
            f"WHERE p2.Sr = p1.{column})"
        )
    if isinstance(plan, ChainPlan):
        items = []
        for index, step in enumerate(plan.steps, start=1):
            item = _step_item(step)
            if index == 1:
                items.append(f"FROM {item} AS s1")
            else:
                items.append(f"JOIN {item} AS s{index} ON s{index - 1}.Tr = s{index}.Sr")
        last = len(plan.steps)
        return f"SELECT s1.Sr AS Sr, s{last}.Tr AS Tr " + " ".join(items)
    raise TypeError(f"not a pair plan: {plan!r}")


def _plain_item(plan: PairPlan) -> str:
    """A FROM-clause item: a bare table or CTE name, else a subquery."""
    if isinstance(plan, (TableScan,)):
        return plan.label
    if isinstance(plan, CteRef):
        return plan.name
    return f"({_pair_sql(plan)})"


def _step_item(step: Step, sep: str = " ") -> str:
    """A step as a FROM-clause item; an annotated step is a semi-join with
    its junction labels, its clauses separated by ``sep``."""
    if step.source_filter is None:
        return _plain_item(step.plan)
    return sep.join(
        (
            "(SELECT e.Sr AS Sr, e.Tr AS Tr",
            f"FROM ({_node_set_sql(step.source_filter)}) AS n",
            f"JOIN {_plain_item(step.plan)} AS e ON e.Sr = n.Sr)",
        )
    )


def _render_conjunct(plan: ConjunctPlan, head: tuple[str, ...], schema: GraphSchema) -> str:
    items: list[tuple[str, str, list[str]]] = []  # (alias, item text, join conditions)
    var_column: dict[str, str] = {}
    where: list[str] = []
    counter = 0

    def bind(var: str, column: str, conditions: list[str]) -> None:
        if var in var_column:
            condition = f"{var_column[var]} = {column}"
            conditions.append(condition)
        else:
            var_column[var] = column

    for atom in plan.atoms:
        first_alias = None
        previous = None
        for step in atom.chain.steps:
            counter += 1
            alias = f"e{counter}"
            conditions: list[str] = []
            if previous is not None:
                conditions.append(f"{previous}.Tr = {alias}.Sr")
            items.append((alias, _step_item(step, "\n          "), conditions))
            if first_alias is None:
                first_alias = alias
            previous = alias
        assert first_alias is not None and previous is not None
        bind(atom.src_var, f"{first_alias}.Sr", items[-len(atom.chain.steps)][2])
        bind(atom.trg_var, f"{previous}.Tr", items[-1][2])

    node_counter = 0
    for var, labels in plan.labels:
        node_counter += 1
        alias = f"n{node_counter}"
        conditions = []
        item = f"({_node_set_sql(labels)})"
        if var in var_column:
            conditions.append(f"{alias}.Sr = {var_column[var]}")
        items.append((alias, item, conditions))
        if var not in var_column:
            var_column[var] = f"{alias}.Sr"

    for var in head:
        if var not in var_column:
            # a head variable no atom mentions ranges over every node
            node_counter += 1
            alias = f"n{node_counter}"
            items.append((alias, f"({_node_set_sql(schema.node_labels)})", []))
            var_column[var] = f"{alias}.Sr"

    select = ", ".join(f"{var_column[var]} AS {var}" for var in head)
    lines = [f"SELECT DISTINCT {select}"]
    for index, (alias, item, conditions) in enumerate(items):
        if index == 0:
            where.extend(conditions)
            lines.append(f"  FROM {item} AS {alias}")
        elif conditions:
            lines.append(f"  JOIN {item} AS {alias} ON " + " AND ".join(conditions))
        else:
            lines.append(f"  CROSS JOIN {item} AS {alias}")
    if where:
        lines.append("  WHERE " + " AND ".join(where))
    return "\n".join(lines)


def _render_cte(cte: Cte) -> str:
    base_select = _pair_sql(cte.inner)
    base_item = _plain_item(cte.inner)
    return (
        f"{cte.name}(Sr, Tr) AS (\n"
        f"  {base_select}\n"
        "  UNION\n"
        f"  SELECT {cte.name}.Sr, s.Tr FROM {cte.name} "
        f"JOIN {base_item} AS s ON {cte.name}.Tr = s.Sr\n"
        ")"
    )


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
    if not query.disjuncts:
        columns = ", ".join(f"NULL AS {var}" for var in query.head)
        source = " FROM DUAL" if dialect == "mysql" else ""
        body = f"SELECT {columns}{source} WHERE 1 = 0;"
        return _wrap_view(body, dialect, as_view)
    plan = build_plan(query, schema)
    selects = [_render_conjunct(conjunct, plan.head, schema) for conjunct in plan.conjuncts]
    body = "\nUNION\n".join(selects) + ";"
    if plan.ctes:
        defs = ", ".join(_render_cte(cte) for cte in plan.ctes)
        body = f"WITH RECURSIVE {defs}\n" + body
    return _wrap_view(body, dialect, as_view)


def _wrap_view(body: str, dialect: str, as_view: bool) -> str:
    if not as_view:
        return body + "\n"
    return _VIEW_PREAMBLE[dialect] + "\n" + body + "\n"


# --- plan interpretation, used to cross-check the translation ---


def _eval_pair_plan(
    plan: PairPlan, db: GraphDB, ctes: dict[str, frozenset[Pair]]
) -> frozenset[Pair]:
    if isinstance(plan, TableScan):
        return db.edge_pairs.get(plan.label, frozenset())
    if isinstance(plan, ReverseScan):
        return frozenset((t, s) for s, t in db.edge_pairs.get(plan.label, frozenset()))
    if isinstance(plan, CteRef):
        return ctes[plan.name]
    if isinstance(plan, PairUnion):
        return frozenset().union(*(_eval_pair_plan(part, db, ctes) for part in plan.parts))
    if isinstance(plan, PairConj):
        return _eval_pair_plan(plan.left, db, ctes) & _eval_pair_plan(plan.right, db, ctes)
    if isinstance(plan, PairBranch):
        main = _eval_pair_plan(plan.main, db, ctes)
        starts = {s for s, _ in _eval_pair_plan(plan.test, db, ctes)}
        if plan.at_target:
            return frozenset((s, t) for s, t in main if t in starts)
        return frozenset((s, t) for s, t in main if s in starts)
    if isinstance(plan, ChainPlan):
        # a step's source filter is the junction label set of its composition;
        # the first step of a chain never carries one
        out = _eval_pair_plan(plan.steps[0].plan, db, ctes)
        for step in plan.steps[1:]:
            out = _compose(out, _eval_pair_plan(step.plan, db, ctes), step.source_filter, db)
        return out
    raise TypeError(f"not a pair plan: {plan!r}")


def evaluate_plan(plan: QueryPlan, db: GraphDB) -> frozenset[tuple]:
    """Run the join plan the way the emitted SQL would, on the evaluator's kernel."""
    ctes: dict[str, frozenset[Pair]] = {}
    for cte in plan.ctes:
        ctes[cte.name] = _closure_delta(_eval_pair_plan(cte.inner, db, ctes))
    out: set[tuple] = set()
    for conjunct in plan.conjuncts:
        atoms = [
            (atom.src_var, atom.trg_var, _eval_pair_plan(atom.chain, db, ctes))
            for atom in conjunct.atoms
        ]
        out |= _join_atoms(plan.head, atoms, dict(conjunct.labels), db)
    return frozenset(out)
