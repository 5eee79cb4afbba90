import functools
import itertools
import json
import random
from collections import Counter

import pytest

from pathforge import (
    BranchL,
    BranchR,
    Concat,
    Conj,
    Conjunct,
    Label,
    LabelAtom,
    MergedTriple,
    Relation,
    Repeat,
    Reverse,
    SchemaTriple,
    TransClos,
    UcqtQuery,
    Union,
    desugar,
    eval_path,
    eval_ucqt,
    gen_db,
    infer,
    merge_triples,
    parse_path_expr,
    parse_query,
    query_of,
    query_to_text,
    remove_redundant,
    rewrite,
    simplify,
    to_text,
)
import pathforge.inference
from pathforge.ast import children, has_annotations, strip_annotations, walk
from pathforge.emit_sql import emit_sql
from pathforge.inference import InferenceOverflow
from pathforge.schema import load_schema

from randutil import random_db, random_expr, random_schema, schema_edge_alphabet
from test_emit_sql import _range_placements, sqlite_rows


def _ann(left, labels, right):
    return Concat(left, right, frozenset(labels))


a, b, d = Label("a"), Label("b"), Label("d")


def test_merge_unions_label_sets_positionwise():
    t1 = SchemaTriple("m", _ann(_ann(TransClos(a), {"n"}, b), {"l"}, d), "p")
    t2 = SchemaTriple("m", _ann(_ann(TransClos(a), {"q"}, b), {"r"}, d), "l")
    merged = merge_triples((t1, t2))
    assert merged == (
        MergedTriple(
            src_set=frozenset({"m"}),
            expr=_ann(_ann(TransClos(a), {"n", "q"}, b), {"l", "r"}, d),
            trg_set=frozenset({"p", "l"}),
        ),
    )


def test_merge_singleton():
    t = SchemaTriple("m", _ann(a, {"n"}, b), "p")
    merged = merge_triples((t,))
    assert merged == (
        MergedTriple(frozenset({"m"}), _ann(a, {"n"}, b), frozenset({"p"})),
    )


def _members_agree(members, seen):
    """Position by position, the members have one node type and agree on
    whether a composition carries a junction set; where none of them holds
    an annotation, they are equal. ``seen`` counts node types met."""
    first = members[0]
    assert {type(m) for m in members} == {type(first)}, members
    seen[type(first)] = seen.get(type(first), 0) + 1
    if isinstance(first, Concat):
        plain_steps = {tuple(labels is None for labels in m.junctions) for m in members}
        assert len(plain_steps) == 1, members
    annotated = {has_annotations(m) for m in members}
    assert len(annotated) == 1, members
    if annotated == {False}:
        assert all(m == first for m in members), members
        return
    for column in zip(*(children(m) for m in members)):
        _members_agree(list(column), seen)


def test_merge_groups_share_one_shape():
    """`merge_triples` trusts that the triples of one `infer` call which
    strip to one plain expression differ only in their junction label sets."""
    rng = random.Random(3001)
    seen = {}
    merging = 0  # groups of several members holding junction sets
    for _ in range(300):
        schema = random_schema(rng)
        expr = random_expr(rng, schema_edge_alphabet(schema), depth=4)
        try:
            triples = infer(simplify(desugar(expr)), schema, path_limit=500)
        except InferenceOverflow:
            continue
        groups = {}
        for triple in triples:
            groups.setdefault(strip_annotations(triple.expr), []).append(triple.expr)
        for members in groups.values():
            merging += len(members) > 1 and has_annotations(members[0])
            _members_agree(members, seen)
    assert merging >= 100, merging
    assert all(seen.get(kind, 0) >= 20 for kind in (TransClos, BranchR, BranchL, Conj, Concat)), seen


def test_merge_partitions_by_plain_expression():
    merged = merge_triples((SchemaTriple("m", a, "p"), SchemaTriple("m", b, "p")))
    assert len(merged) == 2


MERGE_SCHEMA = {
    "nodes": [{"label": x} for x in ["m", "x", "n", "q", "z", "l", "r", "p"]],
    "edges": [
        {"label": "a", "src": "m", "trg": "n"},
        {"label": "a", "src": "m", "trg": "q"},
        {"label": "a", "src": "x", "trg": "z"},
        {"label": "b", "src": "n", "trg": "l"},
        {"label": "b", "src": "q", "trg": "r"},
        {"label": "b", "src": "z", "trg": "l"},
        {"label": "d", "src": "l", "trg": "p"},
        {"label": "d", "src": "r", "trg": "l"},
    ],
}


def test_remove_redundant_drops_covered_junction():
    schema = load_schema(json.dumps(MERGE_SCHEMA))
    merged = MergedTriple(
        src_set=frozenset({"m"}),
        expr=_ann(_ann(TransClos(a), {"n", "q"}, b), {"l", "r"}, d),
        trg_set=frozenset({"p", "l"}),
    )
    out = remove_redundant(merged, schema)
    # the b|d junction covers every target of b, so it filters nothing;
    # the a|b junction and the source set still constrain
    assert to_text(out.expr) == "a+/{n,q}b/d"
    assert out.src_set == frozenset({"m"})
    assert out.trg_set == frozenset()


def test_remove_redundant_no_annotations_unchanged(yago_schema):
    merged = MergedTriple(frozenset(), Label("owns"), frozenset())
    assert remove_redundant(merged, yago_schema) == merged


def test_remove_redundant_full_chain(yago_schema):
    from pathforge import infer

    triples = infer(parse_path_expr("livesIn/isLocatedIn+/dealsWith+"), yago_schema)
    merged = merge_triples(triples)
    assert len(merged) == 1
    out = remove_redundant(merged[0], yago_schema)
    assert out.src_set == frozenset() and out.trg_set == frozenset()
    assert to_text(out.expr) == "livesIn/isLocatedIn/{REGION}isLocatedIn/dealsWith+"


def test_query_of_splits_at_annotation(yago_schema):
    expr = parse_path_expr("livesIn/isLocatedIn/{REGION}isLocatedIn/dealsWith+")
    fragment = query_of("x", "y", expr)
    assert [
        (r.src_var, to_text(r.expr), r.trg_var) for r in fragment.relations
    ] == [
        ("x", "livesIn/isLocatedIn", "_g1"),
        ("_g1", "isLocatedIn/dealsWith+", "y"),
    ]
    assert fragment.labels == {"_g1": frozenset({"REGION"})}


def test_query_of_plain_single_atom():
    fragment = query_of("x", "y", a)
    assert [(r.src_var, r.expr, r.trg_var) for r in fragment.relations] == [("x", a, "y")]
    assert fragment.labels == {}


def test_query_of_splits_a_plain_branch_but_not_a_chain_holding_one():
    def atoms(text):
        fragment = query_of("x", "y", parse_path_expr(text))
        assert fragment.labels == {}
        return [(r.src_var, to_text(r.expr), r.trg_var) for r in fragment.relations]

    # a branch at the top splits, annotated or not; inside a plain chain it
    # stays part of the chain's one atom
    assert atoms("a[b]") == [("x", "a", "y"), ("y", "b", "_g1")]
    assert atoms("a/b[c]") == [("x", "a/b[c]", "y")]


def test_query_of_conjunction_no_fresh_vars():
    from pathforge import Conj

    fragment = query_of("x", "y", Conj(a, b))
    assert [(r.src_var, to_text(r.expr), r.trg_var) for r in fragment.relations] == [
        ("x", "a", "y"),
        ("x", "b", "y"),
    ]


def test_query_of_conjunction_recurses_into_annotated_halves():
    from pathforge import Conj

    fragment = query_of("x", "y", Conj(_ann(a, {"L"}, b), d))
    texts = [(r.src_var, to_text(r.expr), r.trg_var) for r in fragment.relations]
    assert ("x", "d", "y") in texts
    assert ("x", "a", "_g1") in texts and ("_g1", "b", "y") in texts


def test_query_of_branch_allocates_existential_endpoint():
    from pathforge import BranchR

    fragment = query_of("x", "y", BranchR(_ann(a, {"L"}, b), d))
    # main splits between x and y, test runs from y to the fresh endpoint
    texts = [(r.src_var, to_text(r.expr), r.trg_var) for r in fragment.relations]
    assert ("y", "d", "_g1") in texts
    assert ("x", "a", "_g2") in texts and ("_g2", "b", "y") in texts


FULL_CHAIN = "x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)"
FULL_CHAIN_ENRICHED = (
    "x,y <- (x, livesIn/isLocatedIn, _g1) && (_g1, isLocatedIn/dealsWith+, y) && _g1:{REGION}"
)


def test_rewrite_full_chain(yago_schema):
    outcome = rewrite(parse_query(FULL_CHAIN), yago_schema)
    assert query_to_text(outcome.enriched) == FULL_CHAIN_ENRICHED
    assert outcome.reverted == {(0, 0): False}
    assert outcome.warnings == ()


def test_rewrite_keeps_useful_junction(ldbc_schema):
    outcome = rewrite(parse_query("x,y <- (x, knows/workAt/isLocatedIn, y)"), ldbc_schema)
    assert (
        query_to_text(outcome.enriched)
        == "x,y <- (x, knows/workAt, _g1) && (_g1, isLocatedIn, y) && _g1:{Organisation}"
    )


def test_rewrite_unsatisfiable(yago_schema):
    outcome = rewrite(parse_query("x,y <- (x, owns/owns, y)"), yago_schema)
    assert query_to_text(outcome.enriched) == "x,y <- EMPTY"
    assert any("unsatisfiable" in w for w in outcome.warnings)


def test_rewrite_of_the_empty_query_warns_nothing(yago_schema):
    query = parse_query("x <- EMPTY")
    outcome = rewrite(query, yago_schema)
    assert outcome.enriched == query
    assert outcome.warnings == ()


def test_rewrite_validates_its_input_even_when_no_conjunct_survives(yago_schema):
    owns2 = Relation("x", Concat(Label("owns"), Label("owns")), "y")
    with pytest.raises(ValueError, match="duplicate head variable"):
        rewrite(UcqtQuery(head=("x", "x"), disjuncts=(Conjunct((owns2,)),)), yago_schema)
    with pytest.raises(ValueError, match="at least one variable"):
        rewrite(UcqtQuery(head=(), disjuncts=()), yago_schema)


def test_rewrite_reverts_closure_kept_by_schema(yago_schema):
    outcome = rewrite(parse_query("x,y <- (x, dealsWith+, y)"), yago_schema)
    assert query_to_text(outcome.enriched) == "x,y <- (x, dealsWith+, y)"
    assert outcome.reverted == {(0, 0): True}


def test_rewrite_endpoint_label_sets_become_atoms(yago_schema):
    outcome = rewrite(parse_query("x,y <- (x, isLocatedIn/dealsWith, y)"), yago_schema)
    assert (
        query_to_text(outcome.enriched)
        == "x,y <- (x, isLocatedIn/dealsWith, y) && x:{REGION}"
    )


def test_rewrite_intersects_user_label_atoms(yago_schema):
    outcome = rewrite(
        parse_query("x,y <- (x, isLocatedIn/dealsWith, y) && x:{REGION,CITY}"), yago_schema
    )
    assert (
        query_to_text(outcome.enriched)
        == "x,y <- (x, isLocatedIn/dealsWith, y) && x:{REGION}"
    )


def test_rewrite_contradictory_label_atom_kills_conjunct(yago_schema):
    outcome = rewrite(
        parse_query("x,y <- (x, isLocatedIn/dealsWith, y) && x:{CITY}"), yago_schema
    )
    assert query_to_text(outcome.enriched) == "x,y <- EMPTY"
    assert any("empty intersection" in w for w in outcome.warnings)


LABELLED_UNION = "x,y <- (x, livesIn/isLocatedIn+, y)"


def test_rewrite_distributes_union(yago_schema):
    # only alternatives carrying label information are distributed: these
    # two end at REGION and at COUNTRY
    outcome = rewrite(parse_query(LABELLED_UNION), yago_schema)
    assert query_to_text(outcome.enriched) == (
        "x,y <- (x, livesIn/isLocatedIn, _g1) && (_g1, isLocatedIn, y) && _g1:{REGION}"
        " && y:{COUNTRY} || (x, livesIn/isLocatedIn, y) && y:{REGION}"
    )
    assert outcome.reverted == {(0, 0): False}
    # livesIn and owns carry none, and their union is no smaller than the
    # original, so nothing is gained
    outcome = rewrite(parse_query("x,y <- (x, owns|livesIn, y)"), yago_schema)
    assert query_to_text(outcome.enriched) == "x,y <- (x, owns|livesIn, y)"
    assert outcome.reverted == {(0, 0): True}
    assert outcome.warnings == ()


def test_rewrite_pruned_label_free_union_is_one_atom(yago_schema):
    # owns/owns matches nothing, so the folded union is smaller: a gain
    outcome = rewrite(parse_query("x,y <- (x, owns|owns/owns|livesIn, y)"), yago_schema)
    assert query_to_text(outcome.enriched) == "x,y <- (x, livesIn|owns, y)"
    assert outcome.reverted == {(0, 0): False}
    again = rewrite(outcome.enriched, yago_schema)
    assert query_to_text(again.enriched) == query_to_text(outcome.enriched)


def test_rewrite_alternative_cap_reverts(yago_schema):
    outcome = rewrite(parse_query(LABELLED_UNION), yago_schema, disjunct_limit=1)
    assert query_to_text(outcome.enriched) == LABELLED_UNION
    assert outcome.reverted == {(0, 0): True}
    assert any("exceed the limit" in w for w in outcome.warnings)


def test_rewrite_disjunct_limit_bounds_the_product(yago_schema):
    query = parse_query(
        "x,y <- (x, livesIn/isLocatedIn+, y) && (y, livesIn/isLocatedIn+, z) && (z, owns, w)"
    )
    assert len(rewrite(query, yago_schema).enriched.disjuncts) == 4
    # 2 x 2 alternatives exceed 3: the first of the two widest atoms reverts
    outcome = rewrite(query, yago_schema, disjunct_limit=3)
    assert len(outcome.enriched.disjuncts) == 2
    assert outcome.reverted == {(0, 0): True, (0, 1): False, (0, 2): True}
    assert [w for w in outcome.warnings if "exceed the limit" in w] == [
        "2 alternatives for (x, livesIn/isLocatedIn+, y) make 4 disjuncts and exceed the "
        "limit of 3; reverting"
    ]
    outcome = rewrite(query, yago_schema, disjunct_limit=1)
    assert outcome.reverted == {(0, 0): True, (0, 1): True, (0, 2): True}
    assert sum("exceed the limit" in w for w in outcome.warnings) == 2


def test_rewrite_fresh_vars_avoid_user_names(yago_schema):
    outcome = rewrite(
        parse_query("x,_g1 <- (x, livesIn/isLocatedIn+/dealsWith+, _g1)"), yago_schema
    )
    assert (
        query_to_text(outcome.enriched)
        == "x,_g1 <- (x, livesIn/isLocatedIn, _g2) && (_g2, isLocatedIn/dealsWith+, _g1)"
        " && _g2:{REGION}"
    )


def test_rewrite_passes_through_pre_annotated_atoms(ldbc_schema):
    query = parse_query("x,y <- (x, knows/workAt/{Organisation}isLocatedIn, y)")
    outcome = rewrite(query, ldbc_schema)
    assert query_to_text(outcome.enriched) == query_to_text(query)
    assert outcome.reverted == {(0, 0): True}
    assert outcome.warnings == ()


def test_rewrite_all_reverting_disjuncts_keep_query_text(yago_schema):
    query = parse_query("x,y <- (x, dealsWith+, y) || (x, isMarriedTo+, y)")
    outcome = rewrite(query, yago_schema)
    assert query_to_text(outcome.enriched) == query_to_text(query)
    assert outcome.reverted == {(0, 0): True, (1, 0): True}


def test_rewrite_preserves_head_and_multiplies_atoms(yago_schema):
    query = parse_query("x,y <- (x, livesIn/isLocatedIn+, y) && (y, isLocatedIn, z)")
    outcome = rewrite(query, yago_schema)
    assert outcome.enriched.head == ("x", "y")
    assert len(outcome.enriched.disjuncts) == 2
    # the isLocatedIn atom rides along in each disjunct
    for conjunct in outcome.enriched.disjuncts:
        assert Relation("y", Label("isLocatedIn"), "z") in conjunct.relations


def test_rewrite_output_structure_and_label_hygiene(yago_schema):
    from pathforge import Union as Un
    from pathforge import desugar, simplify

    rng = random.Random(227)
    for _ in range(40):
        expr = random_expr(rng, ["owns", "livesIn", "isLocatedIn", "dealsWith"], depth=4)
        baseline = simplify(desugar(expr))
        outcome = rewrite(parse_query(f"x,y <- (x, {to_text(expr)}, y)"), yago_schema)
        for conjunct in outcome.enriched.disjuncts:
            for atom in conjunct.labels:
                assert atom.labels <= yago_schema.node_labels
            for rel in conjunct.relations:
                inside_closure = set()
                for node in walk(rel.expr):
                    if isinstance(node, TransClos):
                        inside_closure.update(id(sub) for sub in walk(node.inner))
                for node in walk(rel.expr):
                    if isinstance(node, Concat) and node.labels is not None:
                        assert node.labels <= yago_schema.node_labels
                        # annotations never sit beneath a closure
                        assert id(node) not in inside_closure
                if rel.expr == baseline:
                    continue  # a reverted atom may keep top-level unions
                for node in walk(rel.expr):
                    if isinstance(node, Un):
                        assert id(node) in inside_closure, to_text(rel.expr)


def test_rewrite_equivalence_on_random_inputs():
    rng = random.Random(307)
    for round_index in range(40):
        schema = random_schema(rng)
        alphabet = schema_edge_alphabet(schema)
        expr = random_expr(rng, alphabet, depth=4)
        query = parse_query(f"x,y <- (x, {to_text(expr)}, y)")
        outcome = rewrite(query, schema)
        for seed in (round_index, round_index + 1000):
            db = gen_db(schema, seed=seed, nodes_per_label=3, edge_prob=0.35)
            assert eval_ucqt(outcome.enriched, db) == eval_ucqt(query, db), to_text(expr)


def _random_small_ranges(rng, alphabet, depth):
    """A random path in which ranges e{m,n}, n at most 3, sit inside and
    around closures, branches, conjunctions, unions, chains, fixed powers
    and each other; bounds this small keep the desugared form inferable."""
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(alphabet)
        return Reverse(name) if rng.random() < 0.2 else Label(name)
    sub = lambda: _random_small_ranges(rng, alphabet, depth - 1)
    kind = rng.choice(["range"] * 3 + ["power", "closure", "branch", "conj", "union", "chain"])
    if kind == "range":
        hi = rng.randint(2, 3)
        return Repeat(sub(), rng.randint(1, hi - 1), hi)
    if kind == "power":
        return Repeat(sub(), *[rng.randint(1, 2)] * 2)
    if kind == "closure":
        return TransClos(sub())
    if kind == "branch":
        return rng.choice([BranchR, BranchL])(sub(), sub())
    return {"conj": Conj, "union": Union, "chain": Concat}[kind](sub(), sub())


def test_ranges_kept_whole_lose_no_label_pair_and_no_row(monkeypatch):
    # TRepeat against the desugared union of powers it replaced: every label
    # pair that union infers is inferred, and the enriched query returns the
    # original's rows in the evaluator and on SQLite
    rng = random.Random(3232)
    pairs = lambda triples: {(t.src, t.trg) for t in triples}
    seen = Counter()
    placements = set()
    for index in range(600):
        if index % 6 == 0:
            schema = random_schema(rng)
            alphabet = schema_edge_alphabet(schema)
            labels = sorted(schema.node_labels)
        expr = _random_small_ranges(rng, alphabet, depth=3)
        placements |= _range_placements(expr)
        kept = pairs(infer(simplify(expr), schema))
        try:
            # nested ranges can multiply the desugared form's triples past
            # what a test can wait for; a tighter join limit skips those
            with monkeypatch.context() as patch:
                patch.setattr(pathforge.inference, "DEFAULT_JOIN_WORK_LIMIT", 100_000)
                unrolled = pairs(infer(simplify(desugar(expr)), schema))
        except InferenceOverflow:
            seen["desugared overflow"] += 1
        else:
            assert kept >= unrolled, to_text(expr)
            seen["equal" if kept == unrolled else "superset"] += 1
        e2 = to_text(_random_small_ranges(rng, alphabet, depth=1))
        text = rng.choice(
            [
                f"x,y <- (x, {to_text(expr)}, y)",
                f"x,y <- (x, {to_text(expr)}, y) && (y, {e2}, z) && z:{{{rng.choice(labels)}}}",
            ]
        )
        query = parse_query(text)
        enriched = rewrite(query, schema).enriched
        db = gen_db(schema, seed=index, nodes_per_label=3, edge_prob=0.35)
        want = eval_ucqt(query, db)
        assert eval_ucqt(enriched, db) == want, text
        assert sqlite_rows(emit_sql(enriched, schema, dialect="sqlite"), db, schema) == want, text
        seen["nonempty"] += bool(want)
    assert seen["equal"] >= 500 and seen["nonempty"] >= 300, seen
    assert placements >= {
        "range in range",
        "range in TransClos",
        "range in BranchR",
        "range in BranchL",
        "range in Conj",
        "TransClos in range",
    }, placements


def _e0_schema(count, arcs):
    """Node labels N0..N(count-1), with e0 edges between the numbered pairs."""
    doc = {
        "nodes": [{"label": f"N{i}"} for i in range(count)],
        "edges": [{"src": f"N{a}", "label": "e0", "trg": f"N{b}"} for a, b in arcs.split()],
    }
    return load_schema(json.dumps(doc))


# label inference explodes on these two, through composition joins (A) and
# closure enumeration (B); their alternatives carry no label information
BLOWUP_A = (_e0_schema(3, "00 11 12 20 21 22"), "x,y <- (x, (e0/([-e0]e0){1,2}){1,3}, y)")
BLOWUP_B = (
    _e0_schema(4, "00 11 12 13 21 22 32"),
    "x,y <- (x, e0{1,2}{2,3}+[([e0]-e0)[e0&e0]&e0{2,4}/[-e0]e0], y)",
)


@pytest.mark.parametrize("schema, text", [BLOWUP_A, BLOWUP_B], ids=["A", "B"])
def test_rewrite_label_free_blowup_reverts(schema, text):
    query = parse_query(text)
    outcome = rewrite(query, schema)
    assert set(outcome.reverted.values()) == {True}
    # the reverted atom keeps its repetitions: it comes back as written
    assert query_to_text(outcome.enriched) == query_to_text(query) == text
    assert len(outcome.enriched.disjuncts) == 1
    assert len(outcome.enriched.disjuncts[0].relations) == 1
    for seed in range(3):
        db = gen_db(schema, seed=seed, nodes_per_label=3, edge_prob=0.4)
        assert eval_ucqt(outcome.enriched, db) == eval_ucqt(query, db)
    again = rewrite(outcome.enriched, schema)
    assert query_to_text(again.enriched) == query_to_text(outcome.enriched)


@pytest.mark.parametrize(
    "schema, text, enriched",
    [
        (None, "x,y <- (x, owns, y) || (x, owns, y)", "x,y <- (x, owns, y)"),  # None: yago
        # the closure unrolls to an alternative equal to the first disjunct
        (
            _e0_schema(3, "01 12"),
            "x,y <- (x, e0, y) || (x, e0++, y)",
            "x,y <- (x, e0, y) || (x, e0, _g1) && (_g1, e0, y) && _g1:{N1} && x:{N0} && y:{N2}",
        ),
        (_e0_schema(2, "01"), "x,y <- (x, e0, y) || (x, e0++, y)", "x,y <- (x, e0, y)"),
    ],
    ids=["written-twice", "unrolled", "unrolled-to-one"],
)
def test_rewrite_union_repeats_no_disjunct(yago_schema, schema, text, enriched):
    schema = schema or yago_schema
    query = parse_query(text)
    outcome = rewrite(query, schema)
    assert query_to_text(outcome.enriched) == enriched
    assert len(set(outcome.enriched.disjuncts)) == len(outcome.enriched.disjuncts)
    for seed in range(3):
        db = gen_db(schema, seed=seed, nodes_per_label=3, edge_prob=0.5)
        assert eval_ucqt(outcome.enriched, db) == eval_ucqt(query, db)


def test_rewrite_keeps_label_free_alternatives_in_one_atom():
    rng = random.Random(4242)
    folds = {True: 0, False: 0}  # label-free atoms by whether they reverted
    for round_index in range(100):
        schema = random_schema(rng)
        alphabet = schema_edge_alphabet(schema)
        e1, e2 = (to_text(random_expr(rng, alphabet, depth=3)) for _ in range(2))
        query = parse_query(f"x,y <- (x, {e1}, y) && (y, {e2}, z)")
        outcome = rewrite(query, schema)
        bound = 1  # the product of the label-carrying alternative counts
        for a_index, rel in enumerate(query.disjuncts[0].relations):
            phi = simplify(rel.expr)
            try:
                merged = [remove_redundant(m, schema) for m in merge_triples(infer(phi, schema))]
            except InferenceOverflow:
                continue
            if any(m.src_set or m.trg_set or has_annotations(m.expr) for m in merged):
                bound *= len(merged)
                continue
            if not merged:
                continue
            # the fold is kept only when it has fewer AST nodes than phi
            folded = functools.reduce(Union, (m.expr for m in merged))
            reverted = len(list(walk(folded))) >= len(list(walk(phi)))
            assert outcome.reverted[(0, a_index)] == reverted, query_to_text(query)
            if len(merged) == 1:
                continue  # one alternative is translated like any other
            folds[reverted] += 1
            # a reverted atom keeps its own normal form, repetitions included
            kept = phi if reverted else folded
            expected = Relation(rel.src_var, kept, rel.trg_var)
            for conjunct in outcome.enriched.disjuncts:
                same_ends = [
                    r for r in conjunct.relations if (r.src_var, r.trg_var) == (rel.src_var, rel.trg_var)
                ]
                assert same_ends == [expected], query_to_text(outcome.enriched)
        assert len(outcome.enriched.disjuncts) <= bound, query_to_text(query)
        db = gen_db(schema, seed=round_index, nodes_per_label=3, edge_prob=0.35)
        assert eval_ucqt(outcome.enriched, db) == eval_ucqt(query, db), query_to_text(query)
    # both outcomes of the fold occur
    assert folds[True] and folds[False], folds


def test_rewrite_conjuncts_repeat_no_relation_atom(yago_schema):
    # both halves of the conjunction carry labels, so they are translated,
    # and the REGION-ending alternative translates to the same atom twice
    query = parse_query("x,y <- (x, livesIn/isLocatedIn+&livesIn/isLocatedIn+, y)")
    merged = [
        remove_redundant(m, yago_schema)
        for m in merge_triples(infer(simplify(desugar(query.disjuncts[0].relations[0].expr)), yago_schema))
    ]
    repeated = [
        f.relations
        for f in (query_of("x", "y", m.expr) for m in merged)
        if len(set(f.relations)) < len(f.relations)
    ]
    assert repeated == [[Relation("x", parse_path_expr("livesIn/isLocatedIn"), "y")] * 2]
    outcome = rewrite(query, yago_schema)
    assert query_to_text(outcome.enriched).endswith(
        " || (x, livesIn/isLocatedIn, y) && y:{REGION}"
    )
    cases = [(yago_schema, query), (BLOWUP_B[0], parse_query(BLOWUP_B[1]))]
    rng = random.Random(919)
    for _ in range(25):
        schema = random_schema(rng)
        alphabet = schema_edge_alphabet(schema)
        e1 = to_text(random_expr(rng, alphabet, depth=3))
        e2 = to_text(random_expr(rng, alphabet, depth=2))
        text = rng.choice(
            [f"x,y <- (x, {e1}, y) && (y, {e2}, z)", f"x,y <- (x, {e1}, y) && (x, {e2}, y)"]
        )
        cases.append((schema, parse_query(text)))
    for index, (schema, query) in enumerate(cases):
        enriched = rewrite(query, schema).enriched
        for conjunct in enriched.disjuncts:
            assert len(set(conjunct.relations)) == len(conjunct.relations), query_to_text(enriched)
        db = gen_db(schema, seed=index, nodes_per_label=3, edge_prob=0.4)
        assert eval_ucqt(enriched, db) == eval_ucqt(query, db), query_to_text(query)


def _random_annotated(rng, depth):
    """An expression over a and b with junction annotations from L0-L2,
    conjunctions and branches: every shape `query_of` translates."""
    if depth <= 0 or rng.random() < 0.25:
        name = rng.choice(["a", "b"])
        return Reverse(name) if rng.random() < 0.2 else Label(name)
    kind = rng.choice(["concat", "ann", "ann", "conj", "branchr", "branchl"])
    left, right = _random_annotated(rng, depth - 1), _random_annotated(rng, depth - 1)
    if kind == "concat":
        return Concat(left, right)
    if kind == "ann":
        return Concat(left, right, frozenset(rng.sample(["L0", "L1", "L2"], rng.randint(1, 2))))
    return {"conj": Conj, "branchr": BranchR, "branchl": BranchL}[kind](left, right)


def _annotated_chain_factor(expr):
    return any(
        any(has_annotations(factor) for factor in node.factors)
        for node in walk(expr)
        if isinstance(node, Concat)
    )


def _recording_names(drawn):
    """Fresh names v1, v2, ..., each appended to ``drawn`` as it is taken."""
    for k in itertools.count(1):
        drawn.append(f"v{k}")
        yield drawn[-1]


def test_query_of_returns_exactly_the_expression_pairs():
    rng = random.Random(5150)
    nested, nonempty = 0, 0
    for _ in range(300):
        expr = _random_annotated(rng, depth=4)
        drawn = []
        fragment = query_of("x", "y", expr, _recording_names(drawn))
        conjunct = Conjunct(
            relations=tuple(fragment.relations),
            labels=tuple(LabelAtom(var, labs) for var, labs in fragment.labels.items()),
        )
        query = UcqtQuery(head=("x", "y"), disjuncts=(conjunct,))
        # every fresh variable drawn is used, once, and is all the atoms
        # have besides the endpoints
        assert len(set(drawn)) == len(drawn)
        assert set(drawn) == conjunct.variables() - {"x", "y"}
        for db in (random_db(rng, ["a", "b"]), random_db(rng, ["a", "b"])):
            expected = {(src, trg) for src, trgs in eval_path(expr, db).items() for trg in trgs}
            assert eval_ucqt(query, db) == expected, to_text(expr)
            nonempty += bool(expected)
        nested += _annotated_chain_factor(expr)
    assert nested >= 50 and nonempty >= 150, (nested, nonempty)
