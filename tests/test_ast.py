import copy
import functools
import gc
import json
import pickle
import random
import re
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
    load_schema,
    parse_path_expr,
    parse_query,
    rewrite,
    simplify,
    strip_annotations,
    to_text,
)
import pathforge.ast
import pathforge.rewriter
from pathforge.ast import children, map_children, walk
from pathforge.inference import derivation_rows

from blowup_cases import BLOWUP_CASES
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
    nary = pathforge.ast._Nary
    assert set(pathforge.ast._Node.__subclasses__()) - {nary} == members - {Concat, Union, Conj}
    assert set(nary.__subclasses__()) == {Concat, Union, Conj}
    assert {type(node) for node in one_of_each} == members
    for node in one_of_each:
        if isinstance(node, nary):
            # an n-ary node holds its children in one tuple field, its first
            assert children(node) == _fields(node)[0] == (a, b)
        else:
            node_fields = tuple(
                name
                for name in node.__match_args__
                if isinstance(getattr(node, name), pathforge.ast._Node)
            )
            assert node._kids == node_fields
            assert children(node) == tuple(getattr(node, name) for name in node_fields)
        assert isinstance(node._prec, int)
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


def _union_of_powers(expr, lo, hi):
    # each power from scratch, not from the one before
    powers = [functools.reduce(Concat, [expr] * k) for k in range(lo, hi + 1)]
    return functools.reduce(Union, powers)


@pytest.mark.parametrize("lo,hi", [(lo, hi) for hi in range(1, 7) for lo in range(1, hi + 1)])
def test_desugar_is_the_union_of_powers(lo, hi):
    assert desugar(Repeat(a, lo, hi)) is _union_of_powers(a, lo, hi)
    b = Label("b")
    body = Concat(a, Repeat(b, 1, 2))
    assert desugar(Repeat(body, lo, hi)) is _union_of_powers(
        Concat(a, _union_of_powers(b, 1, 2)), lo, hi
    )


def test_desugar_refuses_a_bound_past_the_recursion_limit():
    # a{1,490} expands to 120,295 factors and a{1,600} to 180,300
    assert len(desugar(Repeat(a, 1, 490)).operands) == 490
    message = "repetition a{2,600} expands to 180299 factors, more than 150000"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        desugar(Concat(a, Repeat(a, 2, 600)))


def test_desugar_bounds_a_repetition_with_the_repetitions_nested_in_it():
    # a{1,2} nested ten times expands to 3^10 = 59,049 factors of a, and
    # eleven times to 177,147; each level alone expands to 3
    nested = a
    for _ in range(10):
        nested = Repeat(nested, 1, 2)
    assert desugar(nested)
    message = "repetition a" + "{1,2}" * 11 + " expands to 177147 factors, more than 150000"
    for outer in (Repeat(nested, 1, 2), Concat(a, Repeat(Repeat(nested, 1, 2), 1, 2))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            desugar(outer)
    # a union sums its operands' factors: 2 * 120,295 under one repetition
    message = "repetition (a{1,490}|b{1,490}){1,1} expands to 240590 factors, more than 150000"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        desugar(Repeat(Union(Repeat(a, 1, 490), Repeat(Label("b"), 1, 490)), 1, 1))


def test_desugar_builds_only_the_powers_it_returns(monkeypatch):
    # a{500,500} is one chain of 500 factors; building every power from
    # a^1 up would make chains of 125,250 factors in all
    built = []
    chain = Concat.chain

    def counting(cls, factors, junctions):
        node = chain(factors, junctions)
        built.append(len(node.factors) if isinstance(node, Concat) else 1)
        return node

    monkeypatch.setattr(Concat, "chain", classmethod(counting))
    assert len(desugar(Repeat(a, 500, 500)).factors) == 500
    assert sum(built) == 500


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
    junctions = [labels for node in nodes if isinstance(node, Concat) for labels in node.junctions]
    assert None in junctions and any(labels is not None for labels in junctions)
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
    # would pass the default recursion limit on these 400 nested branches
    expr = parse_path_expr("a" + "[a]" * 400)
    assert simplify(desugar(expr)) is expr


def _length(cls, expr):
    # the operands an operand of this class brings
    return len(children(expr)) if isinstance(expr, cls) else 1


def test_a_composition_is_one_flat_node_however_it_is_grouped():
    rng = random.Random(61)
    junctions = [None, frozenset({"A"}), frozenset({"B", "C"})]
    for _ in range(300):
        x, y, z = (_random_annotated(rng, 3) for _ in range(3))
        j1, j2 = rng.choice(junctions), rng.choice(junctions)
        expr = Concat(Concat(x, y, j1), z, j2)
        assert expr is Concat(x, Concat(y, z, j2), j1) is Concat.chain([x, y, z], [j1, j2])
        assert len(expr.factors) == sum(_length(Concat, e) for e in (x, y, z))
        for cls in (Union, Conj):
            node = cls(cls(x, y), z)
            assert node is cls(x, cls(y, z)) is cls.chain([x, y, z]) is cls(x, y, z)
            assert len(children(node)) == sum(_length(cls, e) for e in (x, y, z))
            assert cls(x) is x
            assert parse_path_expr(to_text(node)) is node
        mixed = Conj(Union(expr, Union(x, y)), Conj(Union(y, z), x))
        for node in walk(mixed):
            if isinstance(node, pathforge.ast._Nary):
                assert type(node) not in map(type, children(node))
        assert parse_path_expr(to_text(expr)) is expr


def test_a_chain_takes_one_junction_fewer_than_its_factors():
    assert Concat.chain([a], []) is a
    for factors, junctions in (([], []), ([a], [None]), ([a, a], []), ([a, a], [None, None])):
        with pytest.raises(ValueError):
            Concat.chain(factors, junctions)


def test_an_empty_junction_label_set_is_refused_when_built():
    # a junction node must carry one of its labels, so an empty set would
    # match nothing, and the backends and the printer disagree on it
    empty = frozenset()
    message = "^a junction label set must not be empty$"
    with pytest.raises(ValueError, match=message):
        Concat(Label("livesIn"), Label("isLocatedIn"), empty)
    with pytest.raises(ValueError, match=message):
        Concat.chain([a, Concat(a, a, frozenset({"CITY"})), a], [None, empty])


def _fields(node):
    return tuple(getattr(node, name) for name in node.__match_args__)


def _rebuilt(node):
    """The node built again through the constructors, bottom up."""
    if isinstance(node, Concat):
        return Concat.chain(map(_rebuilt, node.factors), node.junctions)
    if isinstance(node, (Union, Conj)):
        return type(node)(*map(_rebuilt, node.operands))
    node_types = typing.get_args(PathExpr)
    return type(node)(*(_rebuilt(v) if isinstance(v, node_types) else v for v in _fields(node)))


def _stripped_text(text):
    # the plain form's text: the text with every junction label set removed
    return re.sub(r"/\{[^}]*\}", "/", text)


def _interning_pool():
    """300 seeded random expressions with closures, branches, repetitions
    and junction sets, and every subexpression of each."""
    rng = random.Random(23)
    exprs = [_random_annotated(rng) for _ in range(300)]
    nodes = [node for expr in exprs for node in walk(expr)]
    assert {type(node) for node in nodes} >= {Repeat, BranchL, BranchR, TransClos}
    assert any(isinstance(node, Concat) and set(node.junctions) != {None} for node in nodes)
    return exprs, nodes


def test_cached_hash_text_and_plain_form_match_a_fresh_computation():
    exprs, nodes = _interning_pool()
    # fill each tree's caches from the root, so that every subterm's text
    # was first rendered inside its parent's context
    for expr in exprs:
        hash(expr), to_text(expr), strip_annotations(expr)
    for node in nodes:
        # a node built again is the node itself, caches included, so the
        # cached values are checked against ones computed another way
        assert _rebuilt(node) is node
        assert hash(node) == hash(_fields(node))
        assert parse_path_expr(to_text(node)) is node
        assert strip_annotations(node) is parse_path_expr(_stripped_text(to_text(node)))


def test_a_child_rendered_at_top_level_first_still_gets_its_parentheses():
    x = parse_path_expr("a|b")
    assert to_text(x) == "a|b"
    assert to_text(Concat(x, Label("c"))) == "(a|b)/c"
    main = parse_path_expr("[x]y")
    assert to_text(main) == "[x]y"
    assert to_text(BranchR(main, Label("z"))) == "([x]y)[z]"


def test_caches_stay_out_of_fields_match_args_and_repr():
    b = Label("b")
    expected = {
        Label: ("name",),
        Reverse: ("name",),
        Concat: ("factors", "junctions"),
        Union: ("operands",),
        Conj: ("operands",),
        BranchR: ("main", "test"),
        BranchL: ("test", "main"),
        TransClos: ("inner",),
        Repeat: ("inner", "lo", "hi"),
    }
    for cls, names in expected.items():
        assert cls.__slots__ == cls.__match_args__ == names
    node = Concat(TransClos(a), Repeat(b, 1, 2), frozenset({"X"}))
    hash(node), to_text(node), strip_annotations(node)
    assert repr(node) == (
        "Concat(factors=(TransClos(inner=Label(name='a')), "
        "Repeat(inner=Label(name='b'), lo=1, hi=2)), junctions=(frozenset({'X'}),))"
    )
    assert node is _rebuilt(node)


def test_blowup_rewrite_renders_and_strips_each_node_at_most_once(monkeypatch):
    # infer-blowup case A: 11.4k triples whose expressions share most of
    # their nodes; without the caches each node is rendered many times
    _, schema_doc, text = BLOWUP_CASES[0]
    schema = load_schema(json.dumps(schema_doc))
    rendered, stripped = {}, {}
    render_raw, strip = pathforge.ast._render_raw, pathforge.ast.strip_annotations

    def count(seen, node):
        # the node is kept, so that its id is not reused
        seen.setdefault(id(node), [node, 0])[1] += 1

    def counted_render_raw(node):
        count(rendered, node)
        return render_raw(node)

    def counted_strip(node):
        # a call on a node whose plain form is cached does no work
        if not hasattr(node, "_plain"):
            count(stripped, node)
        return strip(node)

    monkeypatch.setattr(pathforge.ast, "_render_raw", counted_render_raw)
    for module in (pathforge.ast, pathforge.rewriter):
        monkeypatch.setattr(module, "strip_annotations", counted_strip)
    outcome = rewrite(parse_query(text), schema)
    rows = derivation_rows(outcome.logs)
    assert sum(len(row.triples) for row in rows) == 11352
    for seen in (rendered, stripped):
        assert seen
        assert max(count for _, count in seen.values()) == 1


def test_simplifying_twice_gives_the_same_object():
    exprs, _ = _interning_pool()
    for expr in exprs:
        assert simplify(desugar(expr)) is simplify(desugar(expr))


def test_nodes_are_equal_exactly_when_identical_and_exactly_when_their_texts_are():
    _, nodes = _interning_pool()
    distinct = list({id(node): node for node in nodes}.values())
    # the pool repeats subtrees, which interning made one object
    assert len(distinct) < len(nodes)
    texts = [to_text(node) for node in distinct]
    for i, x in enumerate(distinct):
        for j, y in enumerate(distinct):
            assert (x == y) is (x is y) is (texts[i] == texts[j])


def test_the_intern_table_forgets_nodes_as_they_die():
    # reference counting alone must empty the entries: the collector is off
    table = pathforge.ast._TABLE
    gc.disable()
    try:
        before = len(table)
        nodes = [Concat(Label(f"fresh{i}"), TransClos(Label("x"))) for i in range(10_000)]
        assert len(table) >= before + 20_000
        del nodes
        assert len(table) == before
    finally:
        gc.enable()


def test_nodes_cannot_change():
    node = Concat(a, TransClos(a), frozenset({"X"}))
    for name in node.__match_args__ + ("_hash",):
        with pytest.raises(AttributeError):
            setattr(node, name, a)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node is Concat(a, TransClos(a), frozenset({"X"}))


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda node: pickle.loads(pickle.dumps(node))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_of_a_node_are_the_node(duplicate):
    _, nodes = _interning_pool()
    for node in nodes:
        assert duplicate(node) is node
