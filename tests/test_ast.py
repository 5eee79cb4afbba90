import random
import typing

import pytest
from hypothesis import given, settings

from pathforge import (
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
    desugar,
    parse_path_expr,
    simplify,
    strip_annotations,
    to_text,
)
import pathforge.ast
from pathforge.ast import children, flatten_chain, map_children, precedence, walk

from randutil import random_expr
from test_parser import _exprs

a = Label("a")


def test_shape_table_precedence_children_and_printer_cover_the_node_set():
    b = Label("b")
    one_of_each = [
        a,
        Reverse("a"),
        Concat(a, b),
        Concat(a, b, frozenset({"X"})),
        Union(a, b),
        Conj(a, b),
        BranchR(a, b),
        BranchL(a, b),
        TransClos(a),
        Repeat(a, 1, 2),
    ]
    members = set(typing.get_args(PathExpr))
    assert set(pathforge.ast._SHAPE) == members
    assert {type(node) for node in one_of_each} == members
    for node in one_of_each:
        assert isinstance(precedence(node), int)
        assert {type(child) for child in children(node)} <= {Label}
        assert parse_path_expr(to_text(node)) == node


def test_desugar_single():
    assert desugar(Repeat(a, 1, 1)) == a


def test_desugar_one_to_two():
    assert desugar(Repeat(a, 1, 2)) == Union(a, Concat(a, a))


def test_desugar_two_to_three():
    assert desugar(Repeat(a, 2, 3)) == Union(Concat(a, a), Concat(Concat(a, a), a))


def test_desugar_nested():
    expr = parse_path_expr("(x{1,2}/y){1,2}")
    assert not any(isinstance(node, Repeat) for node in walk(desugar(expr)))


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_desugar_removes_every_repeat(expr):
    assert not any(isinstance(node, Repeat) for node in walk(desugar(expr)))


def test_strip_annotations():
    expr = parse_path_expr("a/{X}b/c")
    assert strip_annotations(expr) == parse_path_expr("a/b/c")


def test_branch_printing_disambiguates():
    # ([x]y)[z] and [x]y[z] are different trees and must print differently
    left_then_right = parse_path_expr("([x]y)[z]")
    right_then_left = parse_path_expr("[x]y[z]")
    assert left_then_right != right_then_left
    assert to_text(left_then_right) == "([x]y)[z]"
    assert to_text(right_then_left) == "[x]y[z]"


def _random_annotated(rng: random.Random, depth: int = 4):
    """randutil's random expressions with junction-annotated compositions
    mixed in above them."""
    if depth > 0 and rng.random() < 0.3:
        labels = frozenset(rng.sample(["A", "B", "C"], rng.randint(1, 2)))
        return Concat(
            _random_annotated(rng, depth - 1), _random_annotated(rng, depth - 1), labels
        )
    return random_expr(rng, ["a", "b", "c"], depth)


def _random_nodes():
    """Every subexpression of 200 seeded random expressions; together they
    cover each node type."""
    rng = random.Random(7)
    nodes = [node for _ in range(200) for node in walk(_random_annotated(rng))]
    assert {type(node) for node in nodes} >= {Repeat, BranchL, BranchR, TransClos}
    assert any(isinstance(node, Concat) and node.labels is not None for node in nodes)
    assert any(isinstance(node, Concat) and node.labels is None for node in nodes)
    return nodes


def test_map_children_returns_the_node_itself_when_no_child_changes():
    for node in _random_nodes():
        assert map_children(node, lambda child: child) is node


def test_map_children_applies_f_to_each_child_and_keeps_the_rest():
    for node in _random_nodes():
        out = map_children(node, TransClos)
        assert type(out) is type(node)
        assert children(out) == tuple(map(TransClos, children(node)))
        # labels of an annotation and bounds of a repetition carry over
        assert map_children(out, lambda child: child.inner) == node


def test_map_children_visits_children_in_children_order():
    for node in _random_nodes():
        seen = []
        map_children(node, lambda child: seen.append(child) or child)
        assert list(map(id, seen)) == list(map(id, children(node)))
    seen = []
    map_children(parse_path_expr("[t]m"), lambda child: seen.append(to_text(child)) or child)
    map_children(parse_path_expr("m[t]"), lambda child: seen.append(to_text(child)) or child)
    assert seen == ["t", "m", "m", "t"]


def test_map_children_returns_a_leaf_as_it_is():
    leaf = Label("a")
    assert map_children(leaf, lambda child: pytest.fail("a leaf has no children")) is leaf


@pytest.mark.parametrize("value", ["a", None, ("a", "b"), [Label("a")]])
def test_map_children_rejects_a_non_expression(value):
    with pytest.raises(TypeError):
        map_children(value, lambda child: child)


def test_rewrites_through_map_children_keep_their_recursion_depth():
    # desugar and simplify recurse through map_children at two frames per
    # tree level, as the hand-written rewrites did; a third frame per level
    # would pass the default recursion limit on this 400-factor chain
    factors, _ = flatten_chain(simplify(desugar(parse_path_expr("/".join(["a"] * 400)))))
    assert factors == [a] * 400
