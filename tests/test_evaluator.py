import copy
import gc
import random
from itertools import product

import pytest

from pathforge import (
    BranchL,
    BranchR,
    Concat,
    Conj,
    Conjunct,
    EvalStats,
    Label,
    LabelAtom,
    Relation,
    Repeat,
    Reverse,
    TransClos,
    UcqtQuery,
    Union,
    desugar,
    eval_path,
    eval_ucqt,
    gen_db,
    parse_path_expr,
    parse_query,
    rewrite,
    to_text,
)
import pathforge.evaluator
from pathforge.ast import children, map_children, walk
from pathforge.schema import GraphDB

from randutil import random_db, random_expr

# brute-force closure over the four isLocatedIn edges of the sample db:
# n4->n5, n1->n6, n6->n5, n5->n7, chased by hand to saturation
ISL_CLOSURE = {
    ("n1", "n6"),
    ("n1", "n5"),
    ("n1", "n7"),
    ("n6", "n5"),
    ("n6", "n7"),
    ("n4", "n5"),
    ("n4", "n7"),
    ("n5", "n7"),
}


def test_branch_example(fig2_db):
    expr = parse_path_expr("[owns]([isMarriedTo]livesIn)")
    assert eval_path(expr, fig2_db) == {"n2": {"n4"}}


def test_closure_example(fig2_db):
    assert pairs_of(eval_path(parse_path_expr("isLocatedIn+"), fig2_db)) == ISL_CLOSURE


def test_empty_db():
    empty = GraphDB(nodes=(), edges=())
    assert eval_path(parse_path_expr("a"), empty) == {}


def test_annotated_concat_matches_plain_when_labels_cover(fig2_db):
    # every livesIn/isLocatedIn junction in this db is a CITY
    annotated = eval_path(parse_path_expr("livesIn/{CITY}isLocatedIn"), fig2_db)
    plain = eval_path(parse_path_expr("livesIn/isLocatedIn"), fig2_db)
    assert annotated == plain == {"n2": {"n5"}, "n3": {"n5"}}


def test_annotated_concat_filters(fig2_db):
    assert eval_path(parse_path_expr("livesIn/{REGION}isLocatedIn"), fig2_db) == {}


def test_reverse(fig2_db):
    assert eval_path(parse_path_expr("-owns"), fig2_db) == {"n1": {"n2"}}


def pairs_of(succ):
    """The pairs of a successor map."""
    return {(src, trg) for src, trgs in succ.items() for trg in trgs}


def compose_pairs(left, right, junction, db):
    by_src = {}
    for src, trg in right:
        by_src.setdefault(src, set()).add(trg)
    return {
        (src, trg)
        for src, mid in left
        if junction is None or db.node_label[mid] in junction
        for trg in by_src.get(mid, ())
    }


def oracle(expr, db, counts):
    """The expression's pairs by pair-set semantics, one operator at a time,
    with the size of each node's result appended to ``counts`` as
    `EvalStats` counts it; shares no code with the evaluator."""
    if isinstance(expr, (Label, Reverse)):
        pairs = {(e.src, e.trg) for e in db.edges if e.label == expr.name}
        out = pairs if isinstance(expr, Label) else {(t, s) for s, t in pairs}
    elif isinstance(expr, Concat):
        # the chain as the left-nested composition of its factors
        prefix = Concat.chain(expr.factors[:-1], expr.junctions[:-1])
        left, right = oracle(prefix, db, counts), oracle(expr.factors[-1], db, counts)
        out = compose_pairs(left, right, expr.junctions[-1], db)
    elif isinstance(expr, (Union, Conj)):
        # the node counts once, and the partial results of its operands not
        parts = [oracle(operand, db, counts) for operand in expr.operands]
        out = set.union(*parts) if isinstance(expr, Union) else set.intersection(*parts)
    elif isinstance(expr, (BranchR, BranchL)):
        main, test = oracle(expr.main, db, counts), oracle(expr.test, db, counts)
        sources = {src for src, _ in test}
        end = 1 if isinstance(expr, BranchR) else 0
        out = {pair for pair in main if pair[end] in sources}
    elif isinstance(expr, TransClos):
        out = base = oracle(expr.inner, db, counts)
        while not (more := compose_pairs(out, base, None, db)) <= out:
            out = out | more
    else:
        base = power = oracle(expr.inner, db, counts)
        out = set(base) if expr.lo == 1 else set()
        for k in range(2, expr.hi + 1):
            power = compose_pairs(power, base, None, db)
            if k >= expr.lo:
                out |= power
    counts.append(len(out))
    return out


def with_junctions(rng, expr):
    """``expr`` with a random junction label set on about half its
    composition steps."""
    expr = map_children(expr, lambda child: with_junctions(rng, child))
    if isinstance(expr, Concat):
        labels = lambda: frozenset(rng.sample(["L0", "L1", "L2"], rng.randint(1, 2)))
        junctions = [labels() if rng.random() < 0.5 else None for _ in expr.junctions]
        return Concat.chain(expr.factors, junctions)
    return expr


def test_eval_path_matches_pair_set_semantics():
    rng = random.Random(37)
    seen, nonempty = set(), 0
    for _ in range(400):
        db = random_db(rng, ["a", "b", "c"])
        expr = with_junctions(rng, random_expr(rng, ["a", "b", "c"], depth=3))
        counts, stats = [], EvalStats()
        pairs = pairs_of(eval_path(expr, db, stats))
        assert pairs == oracle(expr, db, counts), to_text(expr)
        assert stats.pairs == sum(counts), to_text(expr)
        nonempty += bool(pairs)
        for node in walk(expr):
            seen.add(type(node).__name__)
            if isinstance(node, Concat):
                seen.update("junction" if labels else "no junction" for labels in node.junctions)
                seen.add("chain" if len(node.factors) > 2 else "step")
            if isinstance(node, (Union, Conj)) and len(node.operands) > 2:
                seen.add("n-ary " + type(node).__name__)
    assert seen == {
        "Label",
        "Reverse",
        "Concat",
        "junction",
        "no junction",
        "chain",
        "step",
        "Union",
        "n-ary Union",
        "Conj",
        "n-ary Conj",
        "BranchR",
        "BranchL",
        "TransClos",
        "Repeat",
    }
    assert nonempty >= 150, nonempty


@pytest.mark.parametrize(
    "text, rows, baseline_pairs, enriched_pairs",
    [
        ("x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)", 400, 3533, 2067),
        ("x,y <- (x, livesIn/isLocatedIn+, y)", 701, 2598, 1905),
    ],
    ids=["chain", "unrolled"],
)
def test_benchmark_queries_keep_their_rows_and_pair_counts(
    text, rows, baseline_pairs, enriched_pairs, yago_schema
):
    # the two yago-exec queries on the database of test_claim_steps.py;
    # pair-set evaluation gave these counts, which the benchmark's
    # evaluator.pairs_* metrics report
    db = gen_db(yago_schema, seed=1, nodes_per_label=20, edge_prob=0.3)
    query = parse_query(text)
    enriched = rewrite(query, yago_schema).enriched
    base_stats, enriched_stats = EvalStats(), EvalStats()
    base_rows = eval_ucqt(query, db, base_stats)
    assert eval_ucqt(enriched, db, enriched_stats) == base_rows
    assert len(base_rows) == rows
    assert (base_stats.pairs, enriched_stats.pairs) == (baseline_pairs, enriched_pairs)


def test_closure_naive_agrees_with_delta(monkeypatch):
    rng = random.Random(7)
    naive_calls = 0

    def naive(base):
        # a second, slower oracle for the closure: compose with the base map
        # until no step adds a pair
        nonlocal naive_calls
        naive_calls += 1
        closure = base
        while not pathforge.evaluator._within(
            step := pathforge.evaluator._compose(closure, base), closure
        ):
            closure = pathforge.evaluator._union(closure, step)
        return closure

    for _ in range(50):
        db = random_db(rng, ["a", "b", "c"])
        expr = random_expr(rng, ["a", "b", "c"], depth=3)
        delta = eval_path(expr, db)
        with monkeypatch.context() as patch:
            patch.setattr(pathforge.evaluator, "transitive_closure", naive)
            assert eval_path(expr, db) == delta
    assert naive_calls >= 10, naive_calls


def test_closure_equals_truncated_powers(fig2_db):
    # e+ equals the union of e^1..e^|nodes|
    base = parse_path_expr("isLocatedIn")
    union = set()
    power = "isLocatedIn"
    for _ in range(len(fig2_db.nodes)):
        union |= pairs_of(eval_path(parse_path_expr(power), fig2_db))
        power += "/isLocatedIn"
    assert pairs_of(eval_path(parse_path_expr("isLocatedIn+"), fig2_db)) == union
    assert pairs_of(eval_path(base, fig2_db)) <= union


def test_branch_subset_invariants(fig2_db):
    rng = random.Random(11)
    for _ in range(30):
        db = random_db(rng, ["a", "b"])
        main = random_expr(rng, ["a", "b"], depth=2)
        test = random_expr(rng, ["a", "b"], depth=2)
        from pathforge import BranchL, BranchR

        main_pairs = pairs_of(eval_path(main, db))
        assert pairs_of(eval_path(BranchR(main, test), db)) <= main_pairs
        assert pairs_of(eval_path(BranchL(test, main), db)) <= main_pairs


def test_annotation_with_every_label_equals_plain_concat():
    from pathforge import Concat, Label

    rng = random.Random(17)
    all_labels = frozenset({"L0", "L1", "L2"})  # the generator's full label set
    for _ in range(30):
        db = random_db(rng, ["a", "b"])
        annotated = Concat(Label("a"), Label("b"), all_labels)
        plain = Concat(Label("a"), Label("b"))
        assert eval_path(annotated, db) == eval_path(plain, db)


def repeat_shapes(expr, ancestors=()):
    """The kinds of repetition an expression contains."""
    found = set()
    if isinstance(expr, Repeat):
        if expr.lo > 1:
            found.add("lo > 1")
        if expr.lo == expr.hi:
            found.add("lo == hi")
        if any(isinstance(node, Repeat) for node in ancestors):
            found.add("nested")
        if any(isinstance(node, (TransClos, BranchR, BranchL)) for node in ancestors):
            found.add("under closure or branch")
    for child in children(expr):
        found |= repeat_shapes(child, (*ancestors, expr))
    return found


def test_repeat_matches_desugared():
    # desugar defines e{m,n} as e^m | ... | e^n; the evaluator computes the
    # powers directly and must agree with that definition
    rng = random.Random(13)
    seen = set()
    for depth, alphabet in product((3, 4), (["a", "b"], ["a", "b", "c"])):
        for _ in range(50):
            db = random_db(rng, alphabet)
            expr = random_expr(rng, alphabet, depth=depth)
            seen |= repeat_shapes(expr)
            assert eval_path(expr, db) == eval_path(desugar(expr), db), to_text(expr)
    assert seen == {"lo > 1", "lo == hi", "nested", "under closure or branch"}


def test_repetition_with_a_far_bound_equals_every_power_composed():
    # on six nodes the powers soon empty out or repeat, and the loop stops
    # there; composing each power up to the bound gives the same union
    rng = random.Random(31)
    for _ in range(100):
        db = random_db(rng, ["a", "b"], max_nodes=6)
        expr = random_expr(rng, ["a", "b"], depth=2)
        lo = rng.randint(1, 4)
        base = power = pathforge.evaluator._eval(expr, db, None)
        want = pairs_of(base) if lo == 1 else set()
        for k in range(2, 41):
            power = pathforge.evaluator._compose(power, base)
            if k >= lo:
                want |= pairs_of(power)
        assert pairs_of(eval_path(Repeat(expr, lo, 40), db)) == want, to_text(expr)


def test_lower_bounds_reached_by_squaring_match_desugared():
    # e^m comes from repeated squaring, each m from 1 to 9 by its own mix of
    # squarings and compositions with e; desugar composes e m times
    rng = random.Random(43)
    nonempty = 0
    for m in range(1, 10):
        for _ in range(12):
            db = random_db(rng, ["a", "b"], max_nodes=6)
            expr = Repeat(random_expr(rng, ["a", "b"], depth=2), m, m + rng.randint(0, 2))
            pairs = eval_path(expr, db)
            assert pairs == eval_path(desugar(expr), db), to_text(expr)
            nonempty += bool(pairs)
    assert nonempty >= 30, nonempty


def test_cqt_example(fig2_db):
    # people who own property and live somewhere region-reachable
    query = parse_query("Y <- (Y, livesIn/isLocatedIn+, M) && (Y, owns, Z)")
    assert eval_ucqt(query, fig2_db) == {("n2",)}


def test_single_atom_query(fig2_db):
    query = parse_query("x,y <- (x, owns, y)")
    assert eval_ucqt(query, fig2_db) == {("n2", "n1")}


def test_atom_with_identical_endpoints_needs_a_loop(fig2_db):
    # no single isMarriedTo edge loops, but the two-step round trip does
    assert eval_ucqt(parse_query("x <- (x, isMarriedTo, x)"), fig2_db) == frozenset()
    two_step = parse_query("x <- (x, isMarriedTo/isMarriedTo, x)")
    assert eval_ucqt(two_step, fig2_db) == {("n2",), ("n3",)}


def test_empty_marker_query_returns_nothing(fig2_db):
    assert eval_ucqt(parse_query("x,y <- EMPTY"), fig2_db) == frozenset()


def test_label_atom_filters(fig2_db):
    query = parse_query("x,y <- (x, livesIn/isLocatedIn+, y) && y:{COUNTRY}")
    assert eval_ucqt(query, fig2_db) == {("n2", "n7"), ("n3", "n7")}


def test_label_only_variable_ranges_over_nodes(fig2_db):
    query = parse_query("z <- z:{CITY}")
    assert eval_ucqt(query, fig2_db) == {("n4",), ("n6",)}


def test_union_of_disjuncts(fig2_db):
    query = parse_query("x,y <- (x, owns, y) || (x, livesIn, y)")
    assert eval_ucqt(query, fig2_db) == {("n2", "n1"), ("n2", "n4"), ("n3", "n4")}


def test_head_var_not_in_atoms_ranges_over_all_nodes(fig2_db):
    query = parse_query("x,z <- (x, owns, y)")
    assert eval_ucqt(query, fig2_db) == {("n2", f"n{i}") for i in range(1, 8)}


def test_stats_counts_pairs(fig2_db):
    stats = EvalStats()
    eval_path(parse_path_expr("livesIn/isLocatedIn"), fig2_db, stats=stats)
    # the total over livesIn (2 pairs), isLocatedIn (4) and the composition (2)
    assert stats.pairs == 8


def test_recursion_stays_off_the_public_name(fig2_db, monkeypatch):
    # a wrapper of `eval_path`, as the benchmark's tracer installs, sees one
    # call per relation atom, however deep the atom's expression
    calls = []
    original = pathforge.evaluator.eval_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(pathforge.evaluator, "eval_path", counting)
    query = parse_query(
        "x,y <- (x, livesIn/isLocatedIn+, y) && (y, (isLocatedIn|-livesIn){1,3}, z)"
        " || (x, owns[isLocatedIn]&owns, y)"
    )
    eval_ucqt(query, fig2_db, EvalStats())
    assert calls == [rel.expr for conjunct in query.disjuncts for rel in conjunct.relations]


def test_gen_db_seeded_reproducible(yago_schema):
    assert gen_db(yago_schema, 3, 2, 0.7) == gen_db(yago_schema, 3, 2, 0.7)
    assert gen_db(yago_schema, 3, 2, 0.7) != gen_db(yago_schema, 4, 2, 0.7)


def brute_force_ucqt(query, db):
    """Head tuples by enumerating every assignment of each conjunct's variables
    over the node ids; shares no join code with the evaluator."""
    node_ids = [node.id for node in db.nodes]
    out = set()
    for conjunct in query.disjuncts:
        variables = sorted(conjunct.variables() | set(query.head))
        atoms = [(rel, pairs_of(eval_path(rel.expr, db))) for rel in conjunct.relations]
        for values in product(node_ids, repeat=len(variables)):
            env = dict(zip(variables, values))
            if all((env[rel.src_var], env[rel.trg_var]) in pairs for rel, pairs in atoms) and all(
                db.node_label[env[atom.var]] in atom.labels for atom in conjunct.labels
            ):
                out.add(tuple(env[var] for var in query.head))
    return out


def random_conjunct(rng, variables):
    relations = []
    for _ in range(rng.randint(0, 5)):
        if relations and rng.random() < 0.3:
            # the same variable pair as an earlier atom, either way round
            ends = rng.choice(relations)
            src, trg = rng.sample([ends.src_var, ends.trg_var], 2)
        else:
            src, trg = rng.choice(variables), rng.choice(variables)
        relations.append(Relation(src, random_expr(rng, ["a", "b"], depth=2), trg))
    relations = tuple(relations)
    labelled = rng.sample(variables, rng.randint(0 if relations else 1, 2))
    labels = tuple(
        LabelAtom(var, frozenset(rng.sample(["L0", "L1", "L2"], rng.randint(1, 2))))
        for var in labelled
    )
    return Conjunct(relations, labels)


def test_join_matches_brute_force_enumeration():
    # conjuncts of up to five atoms over four or five variables
    rng = random.Random(23)
    seen = set()
    for _ in range(150):
        db = random_db(rng, ["a", "b"], max_nodes=6)
        head = tuple(rng.sample(["x", "y", "z"], rng.randint(1, 2)))
        variables = ["x", "y", "z", "w", "v"][: rng.choice([4, 5])]
        disjuncts = tuple(
            random_conjunct(rng, variables) for _ in range(rng.choice([0, 1, 1, 2]))
        )
        query = UcqtQuery(head, disjuncts)
        assert eval_ucqt(query, db) == brute_force_ucqt(query, db), query
        # which shapes the suite exercised, so a generator change cannot drop one
        seen.update(shape for conjunct in disjuncts for shape in shapes(head, conjunct, db))
        if not disjuncts:
            seen.add("empty")
    assert seen == {
        "self-loop",
        "same pair",
        "cross product",
        "label-only",
        "head-only",
        "empty",
        "cycle",
        "three atoms on a variable",
        "both ends bound first",
    }


def random_elimination_conjunct(rng):
    """A path of atoms from x through one to three middle variables to y, or
    back to x, each atom pointing either way, with label atoms, self-loops
    and extra atoms on the way."""
    middles = ["m1", "m2", "m3"][: rng.randint(1, 3)]
    path = ["x", *middles, rng.choice(["x", "y"])]
    relations = []
    for u, v in zip(path, path[1:]):
        if rng.random() < 0.5:
            u, v = v, u
        relations.append(Relation(u, random_expr(rng, ["a", "b"], depth=1), v))
    for _ in range(rng.randint(0, 2)):
        var = rng.choice(middles)
        other = var if rng.random() < 0.5 else rng.choice(["x", "y", *middles])
        relations.append(Relation(var, random_expr(rng, ["a", "b"], depth=1), other))
    rng.shuffle(relations)
    labelled = rng.sample(sorted(set(path)), rng.randint(0, 2))
    labels = tuple(
        LabelAtom(var, frozenset(rng.sample(["L0", "L1", "L2"], rng.randint(1, 2))))
        for var in labelled
    )
    return Conjunct(tuple(relations), labels)


def eliminations(head, conjunct):
    """The shapes of the eliminations the join makes: its rule applied to the
    atoms' variable pairs alone."""
    links = [(rel.src_var, rel.trg_var) for rel in conjunct.relations]
    loops = {u for u, v in links if u == v}
    labelled = {atom.var for atom in conjunct.labels}
    links = [(u, v) for u, v in links if u != v]
    count = 0
    while True:
        touched = {}
        for index, (u, v) in enumerate(links):
            touched.setdefault(u, []).append(index)
            touched.setdefault(v, []).append(index)
        if any(len(at) > 2 and var not in head for var, at in touched.items()):
            yield "three atoms on a middle"
        mid = next((var for var, at in touched.items() if len(at) == 2 and var not in head), None)
        if mid is None:
            break
        count += 1
        i, j = touched[mid]
        (u, v), (s, t) = links[i], links[j]
        if mid in labelled:
            yield "label on the middle"
        if mid in loops:
            yield "self-loop on the middle"
        if v == t == mid:
            yield "both into the middle"
        if u == s == mid:
            yield "both out of the middle"
        near, far = u if v == mid else v, t if s == mid else s
        links = [link for index, link in enumerate(links) if index not in (i, j)]
        if near == far:
            yield "one far end"
            loops.add(near)
        else:
            links.append((near, far))
    if count >= 3:
        yield "three in a row"


def test_join_eliminating_middle_variables_matches_brute_force():
    # the join composes away each middle variable that two atoms link; a
    # middle's label and self-loop atoms must still cut the nodes it passes
    rng = random.Random(31)
    seen = set()
    for _ in range(150):
        db = random_db(rng, ["a", "b"], max_nodes=6)
        head = rng.choice([("x", "y"), ("y", "x"), ("x",)])
        conjunct = random_elimination_conjunct(rng)
        query = UcqtQuery(head, (conjunct,))
        assert eval_ucqt(query, db) == brute_force_ucqt(query, db), query
        seen.update(eliminations(head, conjunct))
    assert seen == {
        "label on the middle",
        "self-loop on the middle",
        "both into the middle",
        "both out of the middle",
        "one far end",
        "three in a row",
        "three atoms on a middle",
    }


def test_evaluation_leaves_the_database_maps_unchanged():
    # eval_path returns the database's own maps, and the join reads their
    # sets as they are: narrowing one in place would corrupt later queries
    # without any error
    rng = random.Random(29)
    for _ in range(40):
        db = random_db(rng, ["a", "b"], max_nodes=6)
        maps = lambda: [(db.successors_of(l), db.predecessors_of(l)) for l in ["a", "b"]]
        before = copy.deepcopy(maps())
        for _ in range(5):
            head = tuple(rng.sample(["x", "y", "z"], rng.randint(1, 2)))
            disjuncts = (random_conjunct(rng, ["x", "y", "z", "w"]),)
            eval_ucqt(UcqtQuery(head, disjuncts), db)
        assert maps() == before


def shapes(head, conjunct, db):
    rels = conjunct.relations
    pairs = [frozenset((rel.src_var, rel.trg_var)) for rel in rels]
    in_atoms = {var for pair in pairs for var in pair}
    if any(rel.src_var == rel.trg_var for rel in rels):
        yield "self-loop"
    if len(set(pairs)) < len(pairs):
        yield "same pair"
    if any(not (p & q) for i, p in enumerate(pairs) for q in pairs[i + 1 :]):
        yield "cross product"
    if any(atom.var not in in_atoms for atom in conjunct.labels):
        yield "label-only"
    if set(head) - conjunct.variables():
        yield "head-only"
    if any(sum(var in pair for pair in pairs) >= 3 for var in in_atoms):
        yield "three atoms on a variable"
    # a cycle through three or more variables: what stays of the distinct
    # pairs once those with a variable on no other pair are stripped
    links = {pair for pair in pairs if len(pair) == 2}
    while ends := {var for p in links for var in p if sum(var in q for q in links) < 2}:
        links = {pair for pair in links if not pair & ends}
    if links:
        yield "cycle"
    # in the join's order (smallest map first, an atom linked to a bound
    # variable before any other) some atom finds both its ends bound by
    # earlier ones, so a variable's candidates intersect two atoms' sets
    order = [(len(eval_path(rel.expr, db)), pair) for rel, pair in zip(rels, pairs)]
    order = sorted((atom for atom in order if len(atom[1]) == 2), key=lambda atom: atom[0])
    bound = set()
    while order:
        _, pair = order.pop(next((i for i, (_, p) in enumerate(order) if p & bound), 0))
        if pair <= bound:
            yield "both ends bound first"
            break
        bound |= pair


def test_eval_path_leaves_no_reference_cycle(fig2_db):
    # evaluation leaves no reference cycle behind: one, such as a nested
    # function that refers to itself, would keep what it holds alive until
    # the garbage collector runs
    expr = parse_path_expr("(owns/isLocatedIn+){1,3}")
    gc.collect()
    gc.disable()
    try:
        assert eval_path(expr, fig2_db)
        assert gc.collect() == 0
    finally:
        gc.enable()
