import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathforge import (
    BranchL,
    BranchR,
    Concat,
    Conj,
    Label,
    QuerySyntaxError,
    Relation,
    Repeat,
    Reverse,
    TransClos,
    Union,
    parse_path_expr,
    parse_query,
    query_to_text,
    to_text,
)


def test_two_token_concat():
    assert parse_path_expr("owns/isLocatedIn") == Concat(Label("owns"), Label("isLocatedIn"))


def test_concat_of_closures():
    expr = parse_path_expr("livesIn/isLocatedIn+/dealsWith+")
    assert expr == Concat(
        Concat(Label("livesIn"), TransClos(Label("isLocatedIn"))),
        TransClos(Label("dealsWith")),
    )


def test_repeat_sugar():
    assert parse_path_expr("knows{1,3}") == Repeat(Label("knows"), 1, 3)


def test_nested_left_branches():
    expr = parse_path_expr("[owns]([isMarriedTo]livesIn)")
    assert expr == BranchL(Label("owns"), BranchL(Label("isMarriedTo"), Label("livesIn")))
    # the parentheses are optional: prefixes nest to the right on their own
    assert parse_path_expr("[owns][isMarriedTo]livesIn") == expr


def test_precedence_ladder():
    # + binds tighter than branches, branches tighter than /, then &, then |
    assert parse_path_expr("a/b[c]") == Concat(Label("a"), BranchR(Label("b"), Label("c")))
    assert parse_path_expr("[a]b+") == BranchL(Label("a"), TransClos(Label("b")))
    assert parse_path_expr("a|b&c/d") == Union(
        Label("a"), Conj(Label("b"), Concat(Label("c"), Label("d")))
    )
    assert parse_path_expr("a&b|c") == Union(Conj(Label("a"), Label("b")), Label("c"))


def test_concat_left_associative():
    assert parse_path_expr("a/b/c") == Concat(Concat(Label("a"), Label("b")), Label("c"))


def test_reverse_label():
    assert parse_path_expr("-owns") == Reverse("owns")
    assert parse_path_expr("-owns+") == TransClos(Reverse("owns"))


def test_annotated_concat():
    expr = parse_path_expr("a/{CITY,REGION}b")
    assert expr == Concat(Label("a"), Label("b"), frozenset({"CITY", "REGION"}))


def test_branch_suffix_chain():
    assert parse_path_expr("a[b][c]") == BranchR(BranchR(Label("a"), Label("b")), Label("c"))
    assert parse_path_expr("[a]b[c]") == BranchL(Label("a"), BranchR(Label("b"), Label("c")))


def test_syntax_errors_carry_offsets():
    with pytest.raises(QuerySyntaxError) as err:
        parse_path_expr("a//b")
    assert err.value.offset == 2
    with pytest.raises(QuerySyntaxError):
        parse_path_expr("")
    with pytest.raises(QuerySyntaxError) as err:
        parse_path_expr("a/b)")
    assert err.value.offset == 3


def test_reverse_of_expression_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_path_expr("-(a/b)")


def test_repeat_bounds_validated():
    with pytest.raises(QuerySyntaxError):
        parse_path_expr("a{3,1}")
    with pytest.raises(QuerySyntaxError):
        parse_path_expr("a{0,2}")


def test_query_parsing():
    query = parse_query("x,y <- (x, owns/isLocatedIn, y) && (y, livesIn, z) && z:{REGION}")
    assert query.head == ("x", "y")
    assert len(query.disjuncts) == 1
    conjunct = query.disjuncts[0]
    assert conjunct.relations[0] == Relation("x", Concat(Label("owns"), Label("isLocatedIn")), "y")
    assert conjunct.label_map() == {"z": frozenset({"REGION"})}
    assert conjunct.variables() - set(query.head) == {"z"}


def test_query_union_shares_head():
    query = parse_query("x <- (x, a, y) || (x, b, y)")
    assert len(query.disjuncts) == 2
    assert query.head == ("x",)


def test_empty_marker_query():
    query = parse_query("x,y <- EMPTY")
    assert query.disjuncts == ()
    assert query_to_text(query) == "x,y <- EMPTY"
    assert parse_query(query_to_text(query)) == query


def test_query_round_trip():
    text = "x,y <- (x, a/{A,B}b, y) && y:{REGION} || (x, c+, y)"
    assert query_to_text(parse_query(text)) == text


def test_duplicate_label_atoms_conjoin():
    query = parse_query("x <- (x, a, y) && y:{A,B} && y:{B,C}")
    assert query.disjuncts[0].label_map() == {"y": frozenset({"B"})}


def test_empty_label_meet_is_an_error_at_the_atom_that_empties_it():
    with pytest.raises(QuerySyntaxError, match=r"empty label set on variable 'x' \(at offset 19\)"):
        parse_query("x <- x:{PERSON} && x:{CITY}")


def test_query_errors():
    with pytest.raises(QuerySyntaxError):
        parse_query("x <-")
    with pytest.raises(QuerySyntaxError):
        parse_query("x,x <- (x, a, y)")
    with pytest.raises(QuerySyntaxError):
        parse_query("x <- (x, a, y) extra")


_LABELS = st.sampled_from(["a", "b", "owns", "livesIn", "_x1"])


def _exprs():
    leaves = st.one_of(_LABELS.map(Label), _LABELS.map(Reverse))

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            children.map(TransClos),
            st.tuples(children, st.integers(1, 3), st.integers(0, 2)).map(
                lambda t: Repeat(t[0], t[1], t[1] + t[2])
            ),
            pairs.map(lambda p: Concat(*p)),
            pairs.map(lambda p: Union(*p)),
            pairs.map(lambda p: Conj(*p)),
            pairs.map(lambda p: BranchR(*p)),
            pairs.map(lambda p: BranchL(*p)),
            st.tuples(
                children, st.sets(_LABELS, min_size=1, max_size=2).map(frozenset), children
            ).map(lambda t: Concat(t[0], t[2], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_exprs())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(expr):
    assert parse_path_expr(to_text(expr)) == expr


@given(_exprs())
@settings(max_examples=100, deadline=None)
def test_canonical_text_is_stable(expr):
    text = to_text(expr)
    assert to_text(parse_path_expr(text)) == text


@pytest.mark.parametrize(
    "text, message, offset",
    [
        # a postfix operator needs an atom, a parenthesis or another postfix
        # as its operand, never a branch
        ("a[b]+", "trailing input '+'", 4),
        ("a[b]{1,2}", "trailing input '{'", 4),
        ("[t]a[b]+", "trailing input '+'", 7),
        ("a/{X}+", "expected a path expression, found '+'", 5),
        ("a{2,1}", "repeat bounds must satisfy 1 <= m <= n, got {2,1}", 1),
        ("a+{0,3}", "repeat bounds must satisfy 1 <= m <= n, got {0,3}", 2),
        ("-(a)", "reverse applies to a single edge label", 1),
        ("a//b", "expected a path expression, found '/'", 2),
    ],
)
def test_errors_at_each_binding_level(text, message, offset):
    with pytest.raises(QuerySyntaxError) as err:
        parse_path_expr(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, offset",
    [("a{" + "1" * 5000 + ",2}", 2), ("a{1," + "9" * 4301 + "}", 4)],
    ids=["lower", "upper"],
)
def test_a_repetition_bound_past_the_integer_digit_limit_is_a_syntax_error(text, offset):
    # Python's int() refuses more than 4,300 digits with a plain ValueError
    with pytest.raises(QuerySyntaxError) as err:
        parse_path_expr(text)
    digits = len(text) - len("a{,2}") if offset == 2 else len(text) - len("a{1,}")
    assert str(err.value) == f"repeat bound of {digits} digits is too long (at offset {offset})"
    assert err.value.offset == offset


def test_postfix_on_a_branch_inside_a_query():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("x,y <- (x, a[b]+, y)")
    assert str(err.value) == "expected ',', found '+' (at offset 15)"
    assert err.value.offset == 15


def test_closure_of_a_parenthesised_branch():
    expr = parse_path_expr("(a[b])+")
    assert expr == TransClos(BranchR(Label("a"), Label("b")))
    assert to_text(expr) == "(a[b])+"
