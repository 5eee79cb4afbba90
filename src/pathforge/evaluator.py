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
`eval_path` returns an expression's successor map, read-only: it may be
the database's own map, or share sets with it. A conjunct's maps are joined
one variable at a time: a variable's candidates are the intersection of the
target (or source) sets its atoms reach from the variables bound before it,
and a variable is dropped as soon as nothing later needs it. Before that, a
variable outside the head that only two atoms link is eliminated: the two
maps are composed through the nodes it allows into one atom, so no row is
built per node it takes (the variable elimination of FAQ, Abo Khamis, Ngo
and Rudra, PODS 2016). Their independent oracles, in the evaluator tests:
a naive closure, pair-set semantics for each operator, and a brute-force
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

# a successor map: the target ids of each source id, none of them empty
Succ = Mapping[str, Set[str]]


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


def eval_path(expr: PathExpr, db: GraphDB, stats: EvalStats | None = None) -> Succ:
    """The expression's successor map; read-only, as it may share its sets
    with the database's own maps."""
    return _eval(expr, db, stats)


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


def eval_ucqt(query: UcqtQuery, db: GraphDB, stats: EvalStats | None = None) -> frozenset[tuple]:
    """All head-variable tuples, as the union over the query's conjuncts."""
    validate_query(query)
    out: set[tuple] = set()
    for conjunct in query.disjuncts:
        atoms = [
            (rel.src_var, rel.trg_var, eval_path(rel.expr, db, stats))
            for rel in conjunct.relations
        ]
        out.update(_join(query.head, atoms, conjunct.label_map(), db))
    return frozenset(out)


def _join(
    head: tuple[str, ...],
    atoms: list[tuple[str, str, Succ]],
    label_map: dict[str, frozenset[str]],
    db: GraphDB,
) -> list[tuple]:
    """Head tuples of one conjunct, given the successor maps of its relation
    atoms, binding one variable at a time.

    A variable's label and self-loop atoms first cut the nodes it allows.
    Then, where two or more atoms link distinct variables, each variable
    outside the head that exactly two of them link is composed away (see
    ``_eliminate``), so the README chain and the like become one atom from
    head variable to head variable, whose pairs are the rows.

    A variable's candidates for a row are the intersection of the target
    sets of the atoms that link it to variables bound before it (source
    sets, through the inverted map, where it is the source), within the
    nodes its label and self-loop atoms allow. The atoms are taken smallest
    map first, an atom linked to a bound variable before any other, and each
    atom's source is bound before its target, its candidates the map's
    sources. Head variables no atom links come last, each ranging over the
    nodes its label atom allows, or all nodes. After each step a row keeps
    only the variables that the head or an atom with an unbound end still
    needs, so rows that differ only elsewhere collapse under set semantics;
    the rows stay distinct, and the maps are never changed.
    """
    by_label = db.ids_by_label
    within: dict[str, Set[str]] = {
        var: frozenset().union(*[by_label.get(label, ()) for label in labels])
        for var, labels in label_map.items()
    }
    links = []
    for u, v, succ in atoms:
        if u == v:
            _restrict(within, u, {src for src, trgs in succ.items() if src in trgs})
        else:
            links.append((u, v, succ))
    if len(links) > 1:
        _eliminate(head, links, within)
    if not all(within.values()) or not all(succ for _, _, succ in links):
        return []
    if len(links) == 1 and links[0][:2] == head and within.keys() <= set(head):
        # one atom that binds the whole head: its pairs, cut to the nodes the
        # head's label and self-loop atoms allow
        srcs, trgs_in = within.get(head[0]), within.get(head[1])
        return [
            (src, trg)
            for src, trgs in links[0][2].items()
            if srcs is None or src in srcs
            for trg in (trgs if trgs_in is None else trgs & trgs_in)
        ]

    # the binding order, each variable with the (earlier variable, map)
    # pairs that give its candidates
    links.sort(key=lambda atom: len(atom[2]))
    checks: dict[str, list[tuple[str, Succ]]] = {}
    order: dict[str, int] = {}
    last: dict[str, int] = {}  # the step after which no atom needs a variable
    while links:
        index = next((i for i, (u, v, _) in enumerate(links) if u in order or v in order), 0)
        u, v, succ = links.pop(index)
        if u not in order and v not in order:
            _restrict(within, u, succ.keys())
        for var in (u, v):
            if var not in order:
                order[var], checks[var] = len(order), []
        if order[u] < order[v]:
            checks[v].append((u, succ))
        else:
            checks[u].append((v, _invert(succ)))
        done = max(order[u], order[v]) + 1
        last[u], last[v] = max(last.get(u, 0), done), max(last.get(v, 0), done)
    for var in head:
        if var not in checks:
            checks[var] = []
            within.setdefault(var, db.node_label.keys())

    cols: list[str] = []
    rows: list[tuple] = [()]
    for step, (var, var_checks) in enumerate(checks.items(), start=1):
        found = [(cols.index(other), succ) for other, succ in var_checks]
        kept = [i for i, col in enumerate(cols) if col in head or last.get(col, 0) > step]
        pick = _getter(kept)
        # the node sets each kept prefix reaches, one per row; a variable
        # with checks is cut to its allowed nodes once per prefix
        reach: dict[tuple, list[Set[str]]] = {}
        for row in rows:
            cands = None if found else within[var]
            for pos, succ in found:
                trgs = succ.get(row[pos], frozenset())
                cands = trgs if cands is None else cands & trgs
                if not cands:
                    break
            if cands:
                reach.setdefault(pick(row), []).append(cands)
        allowed = within.get(var) if found else None
        merged = [
            (prefix, parts[0] if len(parts) == 1 else set().union(*parts))
            for prefix, parts in reach.items()
        ]
        if allowed is not None:
            merged = [(prefix, cands & allowed) for prefix, cands in merged]
        cols = [cols[i] for i in kept]
        if var in head or last.get(var, 0) > step:
            cols.append(var)
            rows = [prefix + (node,) for prefix, cands in merged for node in cands]
        else:
            rows = [prefix for prefix, cands in merged if cands]
        if not rows:
            return rows
    if tuple(cols) != head:
        rows = list(map(_getter([cols.index(var) for var in head]), rows))
    return rows


def _restrict(within: dict[str, Set[str]], var: str, nodes: Set[str]) -> None:
    """Cut a variable's allowed nodes to ``nodes``."""
    within[var] = within[var] & nodes if var in within else nodes


def _eliminate(
    head: tuple[str, ...], links: list[tuple[str, str, Succ]], within: dict[str, Set[str]]
) -> None:
    """Compose away, in place, each variable outside the head that exactly two
    atoms link, until none is left.

    The two atoms become one from the far end of the first to the far end of
    the second, through the nodes the variable allows; an atom that points
    the other way is inverted first. Two far ends that are one variable give
    a self-loop, which cuts that variable's allowed nodes instead.
    """
    while True:
        touched: dict[str, list[int]] = {}
        for index, (u, v, _) in enumerate(links):
            touched.setdefault(u, []).append(index)
            touched.setdefault(v, []).append(index)
        mid = next(
            (var for var, at in touched.items() if len(at) == 2 and var not in head), None
        )
        if mid is None:
            return
        i, j = touched[mid]
        if links[i][0] == mid and links[j][1] == mid:
            i, j = j, i
        (u, v, first), (s, t, second) = links[i], links[j]
        # first: far end -> mid, second: mid -> far end
        near, left = (u, first) if v == mid else (v, _invert(first))
        far, right = (t, second) if s == mid else (s, _invert(second))
        if mid in within:
            allowed = within.pop(mid)
            right = {node: trgs for node, trgs in right.items() if node in allowed}
        if near == far:
            loops = {src for src, mids in left.items() if any(src in right.get(m, ()) for m in mids)}
            _restrict(within, near, loops)
            links[:] = [link for index, link in enumerate(links) if index not in (i, j)]
        else:
            links[i] = (near, far, _compose(left, right))
            del links[j]


def _getter(positions: list[int]):
    """A function that picks the given positions of a row, as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def _invert(succ: Succ) -> dict[str, set[str]]:
    """The source set of each target of a successor map."""
    out: dict[str, set[str]] = {}
    for src, trgs in succ.items():
        for trg in trgs:
            if trg in out:
                out[trg].add(src)
            else:
                out[trg] = {src}
    return out


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
