import random

import pytest

from pathforge import (
    BranchL,
    BranchR,
    Repeat,
    desugar,
    eval_path,
    parse_path_expr,
    simplify,
    to_text,
)
from pathforge.ast import walk

from randutil import random_db, random_expr

RED = "(((owns[isMarriedTo+/livesIn/dealsWith+])/(isLocatedIn+)+)+)+"
# sound normal form: test-position closures drop only at the top of a test,
# so the closure on the branch main isMarriedTo+ survives
OPT = "(owns[isMarriedTo+[livesIn[dealsWith]]]/isLocatedIn+)+"


def norm(text: str) -> str:
    return to_text(simplify(desugar(parse_path_expr(text))))


def test_r1_collapses_nested_closures():
    assert norm("((a+)+)+") == "a+"


def test_worked_reduction():
    assert norm(RED) == OPT


def test_normal_form_is_fixpoint():
    assert norm("a/b") == "a/b"


def test_r2_drops_test_closure_only():
    assert norm("a+[b+]") == "a+[b]"
    assert norm("a[b+]") == "a[b]"
    # the main expression's closure is retained
    assert norm("a+[b]") == "a+[b]"


def test_r4_drops_test_closure_only():
    assert norm("[b+]a+") == "[b]a+"
    assert norm("[b+]a") == "[b]a"
    assert norm("[b]a+") == "[b]a+"


def test_r3_nests_test_chains_head_first():
    assert norm("x[a/b/c]") == "x[a[b[c]]]"


def test_r5_nests_left_test_chains():
    assert norm("[a/b/c]x") == "[a[b[c]]]x"


def test_rules_do_not_enter_union_tests():
    assert norm("x[a/b|c]") == "x[a/b|c]"


def test_closure_inside_test_chain_survives_mid_chain():
    # only the top of a test is existential; inner closures still matter
    assert norm("x[a+/b]") == "x[a+[b]]"


@pytest.mark.parametrize(
    "before, after",
    [
        ("m[a/{X}b/c]", "m[(a/{X}b)[c]]"),
        ("m[a/b/{X}c]", "m[a/b/{X}c]"),
        ("[a/b/{X}c/d]m", "[(a/b/{X}c)[d]]m"),
        ("m[(a/{X}b)+]", "m[a/{X}b]"),
        ("m[a/(b/(c/d))]", "m[a[b[c[d]]]]"),
        ("[a/(b/(c/d))]m", "[a[b[c[d]]]]m"),
        ("m[(a/b)/(c/d)]", "m[a[b[c[d]]]]"),
        ("[(a/b)/(c/d)]m", "[a[b[c[d]]]]m"),
        ("m[a/(b/{X}c)]", "m[a/b/{X}c]"),
        ("[a/(b/{X}c)]m", "[a/b/{X}c]m"),
    ],
)
def test_r3_r5_peel_only_plain_compositions(before, after):
    # the head peeled off a test chain runs to its last junction-annotated
    # step, and a chain whose last step is annotated is left alone. However
    # a chain is grouped, it is one node, and so has one normal form
    assert norm(before) == after
    # random_db labels its nodes L0-L2, so there the junction set filters
    expr, expected = (parse_path_expr(text.replace("X", "L1")) for text in (before, after))
    assert simplify(expr) == expected
    rng = random.Random(41)
    for _ in range(100):
        db = random_db(rng, ["a", "b", "c", "d", "m"], max_nodes=8)
        assert eval_path(expected, db) == eval_path(expr, db)


def test_simplify_keeps_the_subtrees_desugar_shares():
    # the benchmark's infer-blowup case A; shared subtrees keep the expression
    # inference reads as small in memory as desugar made it
    expr = desugar(parse_path_expr("(e0/([-e0]e0){1,2}){1,3}"))

    def distinct(e):
        return len({id(node) for node in walk(e)})

    assert distinct(simplify(expr)) == distinct(expr) < sum(1 for _ in walk(expr))


def _repeat_in_a_branch_test(expr) -> bool:
    return any(
        isinstance(node, (BranchR, BranchL))
        and any(isinstance(sub, Repeat) for sub in walk(node.test))
        for node in walk(expr)
    )


def test_idempotent_on_random_expressions():
    # each expression as generated, repetitions included, and desugared
    rng = random.Random(23)
    repeat_tests = 0
    for _ in range(300):
        expr = random_expr(rng, ["a", "b", "c"], depth=5)
        repeat_tests += _repeat_in_a_branch_test(expr)
        for form in (expr, desugar(expr)):
            once = simplify(form)
            assert simplify(once) == once
    assert repeat_tests


def test_preserves_semantics_on_random_dbs():
    rng = random.Random(29)
    repeat_tests = 0
    for _ in range(300):
        expr = random_expr(rng, ["a", "b"], depth=4)
        repeat_tests += _repeat_in_a_branch_test(expr)
        db = random_db(rng, ["a", "b"], max_nodes=8)
        for form in (expr, desugar(expr)):
            assert eval_path(simplify(form), db) == eval_path(form, db)
    assert repeat_tests


def test_worked_reduction_preserves_semantics():
    rng = random.Random(31)
    labels = ["owns", "isMarriedTo", "livesIn", "dealsWith", "isLocatedIn"]
    red = parse_path_expr(RED)
    opt = parse_path_expr(OPT)
    for _ in range(100):
        db = random_db(rng, labels, max_nodes=10)
        assert eval_path(red, db) == eval_path(opt, db)
