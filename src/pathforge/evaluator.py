"""Reference evaluator over in-memory graphs, plus a conforming-database generator.

It is the ground truth the rewriter and emitters are checked against. A path
expression evaluates, under set semantics, to a successor map: the set of
target ids each source id reaches, with no source mapped to an empty set.
Operators work a set at a time: a chain composes left to right, each step
the union, per source, of the target sets of its middle nodes (those of the
junction labels, if any), and `transitive_closure` grows each source's reach
by the targets of the nodes it reached last, so it always terminates; schema
inference calls it on label maps too. Each edge label's map is built once
per database, on first use; a map's sets are never changed once it is
returned, so a map may share them with another.
A repetition e{m,n} is the union of the powers e^m .. e^n, e^m by repeated
squaring and each later one composed from the one before; these powers are
not expression nodes. The loop stops at the first power the union already
holds, such as an empty or a repeated one: each later power composes it
with e, so the union holds those too.
`eval_path` returns an expression's (source id, target id) pairs. A
conjunct's atoms are hash-joined as binding tables, smallest first, with
variables projected out as soon as nothing later needs them. Their
independent oracles: ``_closure_naive`` for the closure, and, in the
evaluator tests, pair-set semantics for each operator and a brute-force
enumeration of variable assignments for the join.
"""

from __future__ import annotations

import random
import string
from collections.abc import Collection, Mapping, Set
from operator import itemgetter

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
)
from .query import UcqtQuery, validate_query
from .record import Record
from .schema import DbEdge, DbNode, GraphDB, GraphSchema

Pair = tuple[str, str]
# a successor map: the target ids of each source id, none of them empty
Succ = Mapping[str, Set[str]]
# a binding table: its variables, and one row of node ids per binding
Table = tuple[tuple[str, ...], Set[tuple]]


class EvalStats(Record):
    """Counts pairs materialized across all subexpression evaluations.

    A repetition counts once, for the union of its powers; the intermediate
    powers are not expression nodes and are not counted. A union or a
    conjunction counts once, as one node, and not the partial results of
    its operands; a chain counts each of its left prefixes, as the
    left-nested binary compositions it stands for would.
    """

    __slots__ = __match_args__ = ("pairs",)

    def __init__(self, pairs: int = 0):
        self.pairs = pairs


def eval_path(expr: PathExpr, db: GraphDB, stats: EvalStats | None = None) -> frozenset[Pair]:
    """All node pairs connected by the expression."""
    if isinstance(expr, Label):
        # a bare label's pairs are indexed already
        pairs = db.edge_pairs.get(expr.name, frozenset())
        if stats is not None:
            stats.pairs += len(pairs)
        return pairs
    succ = _eval(expr, db, stats)
    return frozenset([(src, trg) for src, trgs in succ.items() for trg in trgs])


def _eval(expr: PathExpr, db: GraphDB, stats: EvalStats | None) -> Succ:
    """One node's successor map, its children evaluated by recursion here and
    not through ``eval_path``, so a wrapper of that name sees each top-level
    call once."""
    if isinstance(expr, Label):
        result = db.successors_of(expr.name)
    elif isinstance(expr, Reverse):
        result = db.predecessors_of(expr.name)
    elif isinstance(expr, Concat):
        # each prefix but the whole chain, which counts below, counts here
        result = _eval(expr.factors[0], db, stats)
        for index, junction in enumerate(expr.junctions, start=1):
            if index > 1 and stats is not None:
                stats.pairs += sum(map(len, result.values()))
            right = _eval(expr.factors[index], db, stats)
            if junction is not None:
                labels = db.node_label
                right = {mid: trgs for mid, trgs in right.items() if labels.get(mid) in junction}
            result = _compose(result, right)
    elif isinstance(expr, (Union, Conj)):
        # the operands fold left to right; only the whole node counts
        combine = _union if isinstance(expr, Union) else _intersect
        result = _eval(expr.operands[0], db, stats)
        for operand in expr.operands[1:]:
            result = combine(result, _eval(operand, db, stats))
    elif isinstance(expr, BranchR):
        main, test = _eval(expr.main, db, stats), set(_eval(expr.test, db, stats))
        result = {}
        for src, trgs in main.items():
            if kept := trgs & test:
                result[src] = kept
    elif isinstance(expr, BranchL):
        main, test = _eval(expr.main, db, stats), _eval(expr.test, db, stats)
        result = {src: trgs for src, trgs in main.items() if src in test}
    elif isinstance(expr, TransClos):
        result = transitive_closure(_eval(expr.inner, db, stats))
    elif isinstance(expr, Repeat):
        base = _eval(expr.inner, db, stats)
        result = power = _power(base, expr.lo)
        for _ in range(expr.lo, expr.hi):
            power = _compose(power, base)
            if _within(power, result):
                break
            result = _union(result, power)
    else:
        raise TypeError(f"not a path expression: {expr!r}")
    if stats is not None:
        stats.pairs += sum(map(len, result.values()))
    return result


def _compose(left: Succ, right: Succ) -> dict[str, Set[str]]:
    """Each source of ``left`` to the union of its middle nodes' targets in
    ``right``."""
    out = {}
    for src, mids in left.items():
        reach = [trgs for mid in mids if (trgs := right.get(mid)) is not None]
        if reach:
            out[src] = reach[0] if len(reach) == 1 else set().union(*reach)
    return out


def _union(left: Succ, right: Succ) -> Succ:
    """The pairs of either map."""
    out = {**left, **right}
    for src in left.keys() & right.keys():
        out[src] = left[src] | right[src]
    return out


def _intersect(left: Succ, right: Succ) -> Succ:
    """The pairs of both maps."""
    both = ((src, trgs & right.get(src, frozenset())) for src, trgs in left.items())
    return {src: trgs for src, trgs in both if trgs}


def _within(part: Succ, whole: Succ) -> bool:
    """Whether ``whole`` holds every pair of ``part``."""
    return all(src in whole and trgs <= whole[src] for src, trgs in part.items())


def _power(base: Succ, m: int) -> Succ:
    """``base`` composed with itself to the m-th power, m >= 1, by repeated
    squaring, since composition is associative; a loop, so no bound is too
    large for the stack."""
    power = None
    while m:
        if m & 1:
            power = base if power is None else _compose(power, base)
        m >>= 1
        if m:
            base = _compose(base, base)
    return power


def transitive_closure(successors: Mapping[str, Collection[str]]) -> dict[str, set[str]]:
    """The targets each source reaches by one or more steps of
    ``successors``: its reach grows by the targets of the nodes it first
    reached in the step before, a set at a time, until none is new. A node
    whose own reach is complete adds all of it at once, and the nodes in it
    need no step of their own, as they reach nothing it lacks."""
    closure: dict[str, set[str]] = {}
    for src, first in successors.items():
        reach = set(first)
        frontier = first
        while frontier:
            step = set()
            for mid in frontier:
                done = closure.get(mid)
                if done is not None:
                    reach |= done
                elif trgs := successors.get(mid):
                    step.update(trgs)
            frontier = step - reach
            reach |= frontier
        closure[src] = reach
    return closure


def _closure_naive(base: Succ) -> Succ:
    # kept as a second, slower oracle for `transitive_closure`
    closure = base
    while not _within(step := _compose(closure, base), closure):
        closure = _union(closure, step)
    return closure


def eval_ucqt(query: UcqtQuery, db: GraphDB, stats: EvalStats | None = None) -> frozenset[tuple]:
    """All head-variable tuples, as the union over the query's conjuncts."""
    validate_query(query)
    out: set[tuple] = set()
    for conjunct in query.disjuncts:
        atoms = [
            (rel.src_var, rel.trg_var, eval_path(rel.expr, db, stats))
            for rel in conjunct.relations
        ]
        out |= _join_atoms(query.head, atoms, conjunct.label_map(), db)
    return frozenset(out)


def _columns(positions: list[int]):
    """A function that picks the given positions of a row as a tuple."""
    if len(positions) == 1:
        (index,) = positions
        return lambda row: (row[index],)
    return itemgetter(*positions) if positions else lambda row: ()


def _key(positions: list[int]):
    """A function that picks the given positions of a row, a value for one."""
    return itemgetter(*positions) if positions else lambda row: ()


def _join_atoms(
    head: tuple[str, ...],
    atoms: list[tuple[str, str, frozenset[Pair]]],
    label_map: dict[str, frozenset[str]],
    db: GraphDB,
) -> Set[tuple]:
    """Head tuples of one conjunct, given the pairs of its relation atoms.

    Each atom is a binding table over its one or two variables, filtered by
    the label atoms. The join starts from the smallest table and hash-joins
    the smallest remaining one that shares a variable with the columns so
    far (the smallest of all, a cross product, if none does). After every
    step it projects out each variable that neither the head nor a
    remaining table needs, so rows that differ only there collapse under
    set semantics. A variable no relation atom binds is one more table, of
    one column: the nodes its label atom allows, or all nodes. These tables
    come after the sorted relation tables and share no variable, so the
    join crosses them in last.
    """
    labels = db.node_label
    tables: list[Table] = []
    for u, v, pairs in atoms:
        want_u, want_v = label_map.get(u), label_map.get(v)
        if u == v:
            rows = {(s,) for s, t in pairs if s == t and (want_u is None or labels[s] in want_u)}
            tables.append(((u,), rows))
            continue
        if want_u is not None or want_v is not None:
            pairs = {
                (s, t)
                for s, t in pairs
                if (want_u is None or labels[s] in want_u)
                and (want_v is None or labels[t] in want_v)
            }
        tables.append(((u, v), pairs))
    tables.sort(key=lambda table: len(table[1]))
    bound = {var for cols, _ in tables for var in cols}
    for var in dict.fromkeys((*head, *label_map)):
        if var not in bound:
            want = label_map.get(var)
            rows = {(node.id,) for node in db.nodes if want is None or node.label in want}
            tables.append(((var,), rows))
    if not all(rows for _, rows in tables):
        return set()

    cols: tuple[str, ...] = ()
    rows: Set[tuple] = {()}
    while tables:
        index = next((i for i, (vs, _) in enumerate(tables) if not cols or set(vs) & set(cols)), 0)
        table = tables.pop(index)
        keep = set(head).union(*(vs for vs, _ in tables))
        cols, rows = (
            _project(*table, keep) if not cols else _hash_join(cols, rows, *table, keep)
        )
        if not rows:
            return set()

    if cols == head:
        return rows
    pick = _columns([cols.index(var) for var in head])
    return {pick(row) for row in rows}


def _project(cols: tuple[str, ...], rows: Set[tuple], keep: set[str]) -> Table:
    kept = [i for i, var in enumerate(cols) if var in keep]
    if len(kept) == len(cols):
        return cols, rows
    pick = _columns(kept)
    return tuple(cols[i] for i in kept), {pick(row) for row in rows}


def _hash_join(
    cols: tuple[str, ...],
    rows: Set[tuple],
    table_cols: tuple[str, ...],
    table_rows: Set[tuple],
    keep: set[str],
) -> Table:
    """Join ``rows`` with a table on their shared columns, keeping ``keep``."""
    shared = [var for var in table_cols if var in cols]
    added = [i for i, var in enumerate(table_cols) if var not in cols and var in keep]
    # a key is one value, or a tuple of several, the same way on both sides
    table_key = _key([table_cols.index(var) for var in shared])
    row_key = _key([cols.index(var) for var in shared])
    kept = [i for i, var in enumerate(cols) if var in keep]
    left_pick = _columns(kept)
    out_cols = tuple(cols[i] for i in kept) + tuple(table_cols[i] for i in added)
    if not added:
        keys = {table_key(row) for row in table_rows}
        return out_cols, {left_pick(row) for row in rows if row_key(row) in keys}
    index: dict[object, set[tuple]] = {}
    value = _columns(added)
    for row in table_rows:
        index.setdefault(table_key(row), set()).add(value(row))
    # the matches of rows with one kept prefix merge before any output row
    # is built, so each distinct row is built once
    grouped: dict[tuple, set[tuple]] = {}
    for row in rows:
        match = index.get(row_key(row))
        if match:
            prefix = left_pick(row)
            have = grouped.get(prefix)
            grouped[prefix] = match if have is None else have | match
    return out_cols, {prefix + rest for prefix, rests in grouped.items() for rest in rests}


_WORDS = ("ada", "bo", "cy", "dee", "eli", "fay", "gus", "hal", "ivy", "jo")


def _random_value(type_name: str, rng: random.Random):
    if type_name == "String":
        return rng.choice(_WORDS) + rng.choice(string.ascii_lowercase)
    if type_name == "Int":
        return rng.randrange(0, 100)
    if type_name == "Float":
        return round(rng.uniform(0.0, 100.0), 3)
    if type_name == "Bool":
        return rng.random() < 0.5
    if type_name == "Date":
        return f"20{rng.randrange(10, 30):02d}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
    raise ValueError(f"unknown data type {type_name!r}")


def gen_db(schema: GraphSchema, seed: int, nodes_per_label: int, edge_prob: float) -> GraphDB:
    """A random database that is consistent with the schema by construction.

    For every schema node label, ``nodes_per_label`` nodes are created with
    schema-typed random property values; for every schema edge and every
    (source instance, target instance) pair, an edge is included with
    probability ``edge_prob``. Reproducible for a fixed seed.
    """
    if nodes_per_label < 0:
        raise ValueError("nodes_per_label must be >= 0")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must be within [0, 1]")
    rng = random.Random(seed)
    nodes = []
    instances: dict[str, list[str]] = {}
    for node in sorted(schema.nodes, key=lambda n: n.label):
        ids = []
        for index in range(nodes_per_label):
            node_id = f"{node.label.lower()}_{index}"
            props = tuple(
                (key, _random_value(type_name, rng)) for key, type_name in node.properties
            )
            nodes.append(DbNode(id=node_id, label=node.label, properties=props))
            ids.append(node_id)
        instances[node.label] = ids

    edges = []
    counter = 0
    for edge in sorted(schema.edges, key=lambda e: (e.src, e.label, e.trg)):
        for src in instances[edge.src]:
            for trg in instances[edge.trg]:
                if rng.random() < edge_prob:
                    edges.append(DbEdge(id=f"e{counter}", label=edge.label, src=src, trg=trg))
                    counter += 1
    return GraphDB(nodes=tuple(nodes), edges=tuple(edges))
