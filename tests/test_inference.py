import json
import random
from collections import Counter

import pytest

from pathforge import (
    Concat,
    Label,
    Repeat,
    Reverse,
    SchemaTriple,
    TransClos,
    basic_triples,
    derive,
    desugar,
    eval_path,
    gen_db,
    infer,
    parse_path_expr,
    parse_query,
    plus_comp,
    simplify,
    to_text,
)
import pathforge.inference
from pathforge.ast import walk
from pathforge.evaluator import transitive_closure
from pathforge.inference import InferenceLog, InferenceOverflow
from pathforge.schema import load_schema

from blowup_cases import BLOWUP_CASES
from randutil import random_expr, random_schema, schema_edge_alphabet


def test_basic_triples_yago(yago_schema):
    triples = basic_triples(yago_schema)
    assert len(triples) == len(yago_schema.edges) == 7
    assert SchemaTriple("PERSON", Label("owns"), "PROPERTY") in triples
    assert SchemaTriple("PROPERTY", Label("isLocatedIn"), "CITY") in triples
    assert SchemaTriple("COUNTRY", Label("dealsWith"), "COUNTRY") in triples


def test_basic_triples_empty_schema():
    assert basic_triples(load_schema('{"nodes": [], "edges": []}')) == frozenset()


def test_infer_concat_with_closure(yago_schema):
    triples = infer(parse_path_expr("livesIn/isLocatedIn+"), yago_schema)
    assert len(triples) == 2
    printed = {(t.src, to_text(t.expr), t.trg) for t in triples}
    assert printed == {
        ("PERSON", "livesIn/{CITY}isLocatedIn", "REGION"),
        ("PERSON", "livesIn/{CITY}isLocatedIn/{REGION}isLocatedIn", "COUNTRY"),
    }


def test_infer_full_chain(yago_schema):
    triples = infer(parse_path_expr("livesIn/isLocatedIn+/dealsWith+"), yago_schema)
    (triple,) = triples
    assert (triple.src, triple.trg) == ("PERSON", "COUNTRY")
    assert (
        to_text(triple.expr)
        == "livesIn/{CITY}isLocatedIn/{REGION}isLocatedIn/{COUNTRY}dealsWith+"
    )


def test_infer_unsatisfiable(yago_schema):
    assert infer(parse_path_expr("owns/owns"), yago_schema) == frozenset()


def test_infer_reverse(yago_schema):
    assert infer(parse_path_expr("-owns"), yago_schema) == {
        SchemaTriple("PROPERTY", Reverse("owns"), "PERSON"),
    }


def test_plus_comp_acyclic_chain(yago_schema):
    inner = Label("isLocatedIn")
    triples = plus_comp(inner, infer(inner, yago_schema))
    assert len(triples) == 6
    # an acyclic triple graph eliminates the closure everywhere
    assert all(
        not any(isinstance(sub, TransClos) for sub in walk(t.expr)) for t in triples
    )
    lengths = sorted(1 + to_text(t.expr).count("/") for t in triples)
    assert lengths == [1, 1, 1, 2, 2, 3]


def test_plus_comp_self_loop(yago_schema):
    inner = Label("dealsWith")
    triples = plus_comp(inner, infer(inner, yago_schema))
    assert triples == {SchemaTriple("COUNTRY", TransClos(Label("dealsWith")), "COUNTRY")}


def test_plus_comp_empty():
    assert plus_comp(Label("x"), ()) == frozenset()


def test_plus_comp_mixed_graph():
    # A -> B plus a loop on B: both paths touch the cycle at B, so both
    # output triples keep the closure, and nothing is emitted for B -> A
    phi = Label("e")
    triples = (SchemaTriple("A", Label("e"), "B"), SchemaTriple("B", Label("e"), "B"))
    out = plus_comp(phi, triples)
    assert set(out) == {
        SchemaTriple("A", TransClos(phi), "B"),
        SchemaTriple("B", TransClos(phi), "B"),
    }


def test_plus_comp_two_cycle_emits_closed_round_trips():
    phi = Label("e")
    triples = (SchemaTriple("A", Label("e"), "B"), SchemaTriple("B", Label("e"), "A"))
    out = set(plus_comp(phi, triples))
    assert out == {
        SchemaTriple("A", TransClos(phi), "B"),
        SchemaTriple("B", TransClos(phi), "A"),
        SchemaTriple("A", TransClos(phi), "A"),
        SchemaTriple("B", TransClos(phi), "B"),
    }


def test_plus_comp_fully_cyclic_keeps_closure_shape(yago_schema):
    inner = parse_path_expr("isMarriedTo")
    out = plus_comp(inner, infer(inner, yago_schema))
    assert all(t.expr == TransClos(inner) for t in out)


def test_path_limit_fallback():
    inner = Label("isLocatedIn")
    schema = load_schema(
        '{"nodes": [{"label": "A"}, {"label": "B"}, {"label": "C"}],'
        ' "edges": [{"label": "isLocatedIn", "src": "A", "trg": "B"},'
        '           {"label": "isLocatedIn", "src": "B", "trg": "C"}]}'
    )
    log = InferenceLog()
    out = plus_comp(inner, infer(inner, schema), path_limit=2, log=log)
    assert log.warnings
    assert set(out) == {
        SchemaTriple("A", TransClos(inner), "B"),
        SchemaTriple("A", TransClos(inner), "C"),
        SchemaTriple("B", TransClos(inner), "C"),
    }


def _label_pairs(triples):
    return {(triple.src, triple.trg) for triple in triples}


def _closure_pairs(pairs):
    """`transitive_closure` of a set of label pairs, as label pairs."""
    successors = {}
    for src, trg in pairs:
        successors.setdefault(src, set()).add(trg)
    return {(src, trg) for src, trgs in transitive_closure(successors).items() for trg in trgs}


def test_triple_graph_structure(yago_schema):
    pairs = _closure_pairs(_label_pairs(infer(Label("isLocatedIn"), yago_schema)))
    assert pairs == {
        ("PROPERTY", "CITY"),
        ("PROPERTY", "REGION"),
        ("PROPERTY", "COUNTRY"),
        ("CITY", "REGION"),
        ("CITY", "COUNTRY"),
        ("REGION", "COUNTRY"),
    }
    # no label reaches itself: isLocatedIn has no cyclic label
    loops = _closure_pairs(_label_pairs(infer(Label("dealsWith"), yago_schema)))
    assert loops == {("COUNTRY", "COUNTRY")}


# A -> B -> C -> A, one e edge each: its only cycle takes three steps
_TRIANGLE = load_schema(
    '{"nodes": [{"label": "A"}, {"label": "B"}, {"label": "C"}],'
    ' "edges": [{"label": "e", "src": "A", "trg": "B"},'
    '           {"label": "e", "src": "B", "trg": "C"},'
    '           {"label": "e", "src": "C", "trg": "A"}]}'
)


def test_a_range_over_a_cycle_of_at_most_n_steps_stays_whole(yago_schema):
    # isMarriedTo loops on PERSON in one step
    married = parse_path_expr("isMarriedTo{2,4}")
    assert infer(married, yago_schema) == {SchemaTriple("PERSON", married, "PERSON")}
    # the triangle's round trips take three steps, so within three every
    # sequence touches a cyclic label, and the range joins every two labels
    whole = parse_path_expr("e{1,3}")
    triples = infer(whole, _TRIANGLE)
    assert triples == {SchemaTriple(src, whole, trg) for src in "ABC" for trg in "ABC"}
    assert _label_pairs(triples) == _label_pairs(infer(desugar(whole), _TRIANGLE))
    rows = derive(whole, _TRIANGLE)
    assert (rows[-1].term, rows[-1].rule) == ("e{1,3}", "TRepeat")


def test_a_range_over_no_cycle_of_at_most_n_steps_unrolls_chains_of_m_to_n_steps(yago_schema):
    expr = parse_path_expr("isLocatedIn{2,3}")
    triples = infer(expr, yago_schema)
    assert {(t.src, to_text(t.expr), t.trg) for t in triples} == {
        ("PROPERTY", "isLocatedIn/{CITY}isLocatedIn", "REGION"),
        ("CITY", "isLocatedIn/{REGION}isLocatedIn", "COUNTRY"),
        ("PROPERTY", "isLocatedIn/{CITY}isLocatedIn/{REGION}isLocatedIn", "COUNTRY"),
    }
    assert triples == infer(desugar(expr), yago_schema)
    # every triangle label reaches itself, but no round trip fits in two
    # steps: the cycles are read off the walk, not off reachability
    short = parse_path_expr("e{1,2}")
    triples = infer(short, _TRIANGLE)
    assert len(triples) == 6
    assert triples == infer(desugar(short), _TRIANGLE)
    assert not any(isinstance(node, Repeat) for t in triples for node in walk(t.expr))


def test_a_fixed_power_infers_as_its_chain(yago_schema):
    for power, chain in (
        ("isMarriedTo{3,3}", "isMarriedTo/isMarriedTo/isMarriedTo"),
        ("isLocatedIn{2,2}", "isLocatedIn/isLocatedIn"),
        ("(owns/isLocatedIn{1,1}){1,1}", "owns/isLocatedIn"),
        ("e{3,3}", "e/e/e"),
    ):
        schema = _TRIANGLE if power.startswith("e") else yago_schema
        assert infer(parse_path_expr(power), schema) == infer(parse_path_expr(chain), schema)
    # a cyclic body unrolls too, where the range would stay whole
    (triple,) = infer(parse_path_expr("isMarriedTo{3,3}"), yago_schema)
    assert to_text(triple.expr) == "isMarriedTo/{PERSON}isMarriedTo/{PERSON}isMarriedTo"


def test_a_range_past_the_path_limit_keeps_the_range_between_reachable_labels():
    # the triangle's sequences of at most two steps: six paths
    inner = Label("e")
    triples = infer(inner, _TRIANGLE)
    log = InferenceLog()
    assert len(plus_comp(inner, triples, 6, log, 1, 2)) == 6
    assert log.warnings == []
    kept = plus_comp(inner, triples, 5, log, 1, 2)
    assert kept == {SchemaTriple(s, Repeat(inner, 1, 2), t) for s in "ABC" for t in "ABC"}
    assert log.warnings == ["path enumeration exceeded 5 paths; keeping the range"]


@pytest.mark.parametrize(
    "text",
    [
        "owns/{PROPERTY}isLocatedIn",
        "livesIn|owns/{PROPERTY}isLocatedIn",
        "(livesIn/{CITY}isLocatedIn)+",
    ],
)
def test_infer_rejects_junction_annotations(yago_schema, text):
    with pytest.raises(ValueError, match="annotation-free"):
        infer(parse_path_expr(text), yago_schema)


def test_canonical_order_is_deterministic(yago_schema):
    # inference returns sets, and only the printers order them (by sort key):
    # tests/test_cli.py pins that order with goldens and across hash seeds
    expr = parse_path_expr("isLocatedIn+")
    first = infer(expr, yago_schema)
    assert first == infer(expr, yago_schema)
    assert isinstance(first, frozenset)
    assert isinstance(basic_triples(yago_schema), frozenset)
    assert isinstance(plus_comp(Label("isLocatedIn"), first), frozenset)


def test_derive_rows_for_full_chain(yago_schema):
    rows = derive(parse_path_expr("livesIn/isLocatedIn+/dealsWith+"), yago_schema)
    # the chain's prefix is not a sub-term of the one flat chain node
    rows += derive(parse_path_expr("livesIn/isLocatedIn+"), yago_schema)
    by_term = {row.term: row for row in rows}
    assert len(by_term["livesIn"].triples) == 1
    assert len(by_term["isLocatedIn+"].triples) == 6
    assert len(by_term["dealsWith+"].triples) == 1
    assert len(by_term["livesIn/isLocatedIn+"].triples) == 2
    assert len(by_term["livesIn/isLocatedIn+/dealsWith+"].triples) == 1
    assert by_term["livesIn"].rule == "TBasic"
    assert by_term["isLocatedIn+"].rule == "TPlus"
    assert by_term["livesIn/isLocatedIn+"].rule == "TConcat"
    # the closure on dealsWith is retained
    assert by_term["dealsWith+"].triples[0][1] == "dealsWith+"


def test_derive_rows_match_per_subterm_inference():
    rng = random.Random(303)
    for _ in range(50):
        schema = random_schema(rng)
        expr = simplify(desugar(random_expr(rng, schema_edge_alphabet(schema), depth=4)))
        rows = derive(expr, schema)
        terms = [row.term for row in rows]
        assert len(set(terms)) == len(terms)
        assert terms[-1] == to_text(expr)
        subterms = {to_text(node): node for node in walk(expr)}
        assert set(terms) == set(subterms)
        for row in rows:
            inferred = infer(subterms[row.term], schema)
            assert row.triples == tuple(sorted(t.sort_key() for t in inferred)), row.term


def _labels_of(db):
    return db.node_label


def _pairs(succ):
    """The pairs of a successor map."""
    return [(src, trg) for src, trgs in succ.items() for trg in trgs]


def test_soundness_and_completeness_on_random_inputs():
    rng = random.Random(101)
    checked = 0
    for round_index in range(60):
        schema = random_schema(rng)
        alphabet = schema_edge_alphabet(schema)
        expr = simplify(desugar(random_expr(rng, alphabet, depth=4)))
        triples = infer(expr, schema)
        db = gen_db(schema, seed=round_index, nodes_per_label=3, edge_prob=0.4)
        labels = _labels_of(db)
        phi = eval_path(expr, db)
        for triple in triples:
            for s, t in _pairs(eval_path(triple.expr, db)):
                if labels[s] == triple.src and labels[t] == triple.trg:
                    assert t in phi.get(s, ()), (to_text(expr), triple)
        for s, t in _pairs(phi):
            witnesses = [
                triple
                for triple in triples
                if triple.src == labels[s] and triple.trg == labels[t]
            ]
            assert any(t in eval_path(w.expr, db).get(s, ()) for w in witnesses), (
                to_text(expr),
                (s, t),
            )
        checked += 1
    assert checked == 60


def _warshall(vertices, arcs):
    """Reachability by a boolean Warshall closure over the arc relation."""
    order = sorted(vertices)
    reach = {(u, v): False for u in order for v in order}
    for src, trg in arcs:
        reach[(src, trg)] = True
    for k in order:
        for i in order:
            if reach[(i, k)]:
                for j in order:
                    if reach[(k, j)]:
                        reach[(i, j)] = True
    return {pair for pair, flag in reach.items() if flag}


def _random_label_graph(rng):
    """Arcs over cyclic-prone labels N*, forward-only labels A* (acyclic),
    and arcs from N* into A*; some self-loops and 2-cycles are forced."""
    cyclic = [f"N{i}" for i in range(rng.randint(1, 4))]
    acyclic = [f"A{i}" for i in range(rng.randint(0, 4))]
    arcs = set()
    for _ in range(rng.randint(0, 6)):
        arcs.add((rng.choice(cyclic), rng.choice(["e", "f"]), rng.choice(cyclic)))
    if rng.random() < 0.4:
        label = rng.choice(cyclic)
        arcs.add((label, "e", label))
    if rng.random() < 0.4:
        u, v = rng.choice(cyclic), rng.choice(cyclic)
        arcs.update({(u, "e", v), (v, "f", u)})
    for i, j in ((i, j) for i in range(len(acyclic)) for j in range(i + 1, len(acyclic))):
        if rng.random() < 0.5:
            arcs.add((acyclic[i], "e", acyclic[j]))
    if acyclic:
        for _ in range(rng.randint(0, 2)):
            arcs.add((rng.choice(cyclic), "e", rng.choice(acyclic)))
    return arcs


def test_reachable_and_cyclic_vertices_match_a_warshall_closure():
    rng = random.Random(17)
    saw = {"self-loop": 0, "2-cycle": 0, "acyclic vertex": 0}
    for _ in range(150):
        arcs = _random_label_graph(rng)
        pairs = {(src, trg) for src, _, trg in arcs}
        vertices = {v for pair in pairs for v in pair}
        expected = _warshall(vertices, pairs)
        triples = [SchemaTriple(src, Label(name), trg) for src, name, trg in arcs]
        assert _closure_pairs(pairs) == expected
        # plus_comp keeps the closure for the reachable pairs some path
        # joins through a cyclic label, one reachable from itself
        cyclic = {v for v in vertices if (v, v) in expected}
        through_cycle = {
            (s, t)
            for s, t in expected
            if any((c == s or (s, c) in expected) and (c == t or (c, t) in expected) for c in cyclic)
        }
        closure = TransClos(Label("g"))
        out = plus_comp(Label("g"), triples)
        assert {(t.src, t.trg) for t in out if t.expr == closure} == through_cycle
        saw["self-loop"] += any(src == trg for src, trg in pairs)
        saw["2-cycle"] += any(src != trg and (trg, src) in pairs for src, trg in pairs)
        saw["acyclic vertex"] += bool(vertices - cyclic)
    assert all(count >= 10 for count in saw.values()), saw


# a: A->B, B->B, C->B; b: B->A, B->C; c: A->B
_JOIN_SCHEMA = load_schema(
    '{"nodes": [{"label": "A"}, {"label": "B"}, {"label": "C"}],'
    ' "edges": [{"label": "a", "src": "A", "trg": "B"},'
    '           {"label": "a", "src": "B", "trg": "B"},'
    '           {"label": "a", "src": "C", "trg": "B"},'
    '           {"label": "b", "src": "B", "trg": "A"},'
    '           {"label": "b", "src": "B", "trg": "C"},'
    '           {"label": "c", "src": "A", "trg": "B"}]}'
)


@pytest.mark.parametrize(
    "text, work, steps",
    [
        # a's three triples all end at B, where b's two start: 3 * 2
        ("a/b", 6, ["a", "b", "a/b"]),
        # equal (src, trg): (A, B) holds a and c on each side, (B, B) and
        # (C, B) hold a alone: 2 * 2 + 1 + 1
        ("(a|c)&(a|c)", 6, ["a", "c", "a|c", "a", "c", "a|c", "(a|c)&(a|c)"]),
        # main's target B against test's source B: 3 * 2
        ("a[b]", 6, ["a", "b", "a[b]"]),
        # equal source, the test inferred first: A holds a in the test and
        # a and c in the main, B and C one each: 1 * 2 + 1 + 1
        ("[a](a|c)", 4, ["a", "a", "c", "a|c", "[a](a|c)"]),
    ],
)
def test_join_work_limit_counts_matching_pairs(monkeypatch, text, work, steps):
    expr = parse_path_expr(text)
    monkeypatch.setattr(pathforge.inference, "DEFAULT_JOIN_WORK_LIMIT", work)
    log = InferenceLog()
    assert infer(expr, _JOIN_SCHEMA, log=log)
    assert [to_text(node) for node, _ in log.steps] == steps
    monkeypatch.setattr(pathforge.inference, "DEFAULT_JOIN_WORK_LIMIT", work - 1)
    with pytest.raises(InferenceOverflow, match=f"need {work} combinations"):
        infer(expr, _JOIN_SCHEMA)


def _enumerated_paths(triples) -> int:
    """The number of triple paths plus_comp's path limit caps, counted per
    label sequence: every path without a repeated label, and every round
    trip back to its start, each triple of a multi-arc apart."""
    arcs = Counter((t.src, t.trg) for t in triples)
    labels = {label for pair in arcs for label in pair}

    def from_here(start, here, seen):
        # this path, its round trips, and its extensions
        total = 1 + arcs[here, start]
        for nxt in labels - seen:
            total += arcs[here, nxt] * from_here(start, nxt, seen | {nxt})
        return total

    return sum(
        arcs[start, start]
        + sum(arcs[start, nxt] * from_here(start, nxt, {start, nxt}) for nxt in labels - {start})
        for start in labels
    )


def test_plus_comp_ignores_the_order_of_its_triples():
    rng = random.Random(23)
    inner = Label("e")
    fallbacks = 0
    for _ in range(60):
        arcs = _random_label_graph(rng)
        triples = sorted(
            (SchemaTriple(src, Label(name), trg) for src, name, trg in arcs),
            key=SchemaTriple.sort_key,
        )
        count = _enumerated_paths(triples)
        # one limit below the path count (the fallback fires) and one at it
        for path_limit in {max(count - 1, 0), count}:
            expected_log = InferenceLog()
            expected = plus_comp(inner, triples, path_limit, expected_log)
            fallbacks += bool(expected_log.warnings)
            for _ in range(4):
                log = InferenceLog()
                shuffled = rng.sample(triples, len(triples))
                assert plus_comp(inner, shuffled, path_limit, log) == expected
                assert log.warnings == expected_log.warnings
    assert fallbacks >= 30, fallbacks


def test_path_limit_counts_each_path_of_the_blowup_closure_once():
    # infer-blowup case B: its closure's inner expression has 563 triples
    # over four labels, which make 928,477 triple paths; plus_comp counts
    # them per label sequence
    _, schema_doc, text = BLOWUP_CASES[1]
    schema = load_schema(json.dumps(schema_doc))
    expr = simplify(desugar(parse_query(text).disjuncts[0].relations[0].expr))
    (closure,) = (node for node in walk(expr) if isinstance(node, TransClos))
    triples = infer(closure.inner, schema)
    paths = _enumerated_paths(triples)
    assert (len(triples), paths) == (563, 928_477)
    # every path touches a cycle, so within the limit the result is the
    # fallback's too
    fallback = {
        SchemaTriple(src, closure, trg) for src, trg in _closure_pairs(_label_pairs(triples))
    }
    log = InferenceLog()
    assert plus_comp(closure.inner, triples, paths, log) == fallback
    assert log.warnings == []
    log = InferenceLog()
    assert plus_comp(closure.inner, triples, paths - 1, log) == fallback
    assert log.warnings == [f"path enumeration exceeded {paths - 1} paths; keeping the closure"]


def test_plus_comp_computes_reachable_pairs_only_past_the_path_limit(yago_schema, monkeypatch):
    # under the limit the walk's round trips give the cyclic labels; only
    # the fallback needs the reachable label pairs, once
    calls = Counter()
    original = pathforge.inference._reachable_pairs

    def counted(pairs):
        calls["_reachable_pairs"] += 1
        return original(pairs)

    monkeypatch.setattr(pathforge.inference, "_reachable_pairs", counted)
    inner = parse_path_expr("isLocatedIn|dealsWith")
    triples = infer(inner, yago_schema)
    paths = _enumerated_paths(triples)
    closed = plus_comp(inner, triples, paths)
    assert calls == Counter()
    # dealsWith loops on COUNTRY, so the closure stays between those ends
    assert SchemaTriple("COUNTRY", TransClos(inner), "COUNTRY") in closed
    log = InferenceLog()
    plus_comp(inner, triples, paths - 1, log)
    assert calls == Counter({"_reachable_pairs": 1})
    assert len(log.warnings) == 1


def _random_multi_arc_graph(rng):
    """Triples over cyclic-prone labels N* and forward-only labels A*, with
    one to three triples per label pair, each with its own expression."""
    exprs = [Label("e"), Label("f"), Reverse("e")]
    cyclic = [f"N{i}" for i in range(rng.randint(1, 3))]
    acyclic = [f"A{i}" for i in range(rng.randint(0, 4))]
    pairs = {(rng.choice(cyclic), rng.choice(cyclic)) for _ in range(rng.randint(0, 4))}
    pairs |= {
        (acyclic[i], acyclic[j])
        for i in range(len(acyclic))
        for j in range(i + 1, len(acyclic))
        if rng.random() < 0.6
    }
    if acyclic:
        pairs |= {(rng.choice(cyclic), rng.choice(acyclic)) for _ in range(rng.randint(0, 2))}
    return [
        SchemaTriple(src, expr, trg)
        for src, trg in pairs
        for expr in rng.sample(exprs, rng.randint(1, 3))
    ]


def _reference_plus_comp(inner, triples, path_limit):
    """plus_comp's result and warnings, by walking every triple path one at
    a time and counting the walk against the path limit."""
    arcs_by_src = {}
    for arc in triples:
        arcs_by_src.setdefault(arc.src, []).append(arc)
    pairs = _warshall(
        {v for t in triples for v in (t.src, t.trg)}, {(t.src, t.trg) for t in triples}
    )
    cyclic = {src for src, trg in pairs if src == trg}
    paths = []

    def extend(path, on_path, touches_cycle):
        paths.append((path, touches_cycle))
        for arc in arcs_by_src.get(path[-1].trg, ()):
            if arc.trg == path[0].src:
                paths.append((path + [arc], True))
            elif arc.trg not in on_path:
                extend(path + [arc], on_path | {arc.trg}, touches_cycle or arc.trg in cyclic)

    for arc in triples:
        if arc.src == arc.trg:
            paths.append(([arc], True))
        else:
            extend([arc], {arc.src, arc.trg}, arc.src in cyclic or arc.trg in cyclic)
    closure = TransClos(inner)
    if len(paths) > path_limit:
        warning = f"path enumeration exceeded {path_limit} paths; keeping the closure"
        return {SchemaTriple(src, closure, trg) for src, trg in pairs}, [warning]
    out = set()
    for path, touches_cycle in paths:
        expr = closure if touches_cycle else path[-1].expr
        if not touches_cycle:
            for arc in reversed(path[:-1]):
                expr = Concat(arc.expr, expr, frozenset({arc.trg}))
        out.add(SchemaTriple(path[0].src, expr, path[-1].trg))
    return out, []


def test_plus_comp_on_multi_arc_graphs_matches_a_per_triple_walk():
    rng = random.Random(31)
    inner = Label("g")
    saw = Counter()
    for _ in range(200):
        triples = _random_multi_arc_graph(rng)
        count = _enumerated_paths(triples)
        # one limit below the path count (the fallback fires) and one at it
        for path_limit in (count - 1, count) if count else (0,):
            expected, warnings = _reference_plus_comp(inner, triples, path_limit)
            log = InferenceLog()
            assert plus_comp(inner, triples, path_limit, log) == expected
            assert log.warnings == warnings
            saw["fallback"] += bool(warnings)
        # at the path count, a cycle-free label sequence of two or more steps,
        # one of them a multi-arc, unrolls into a triple per choice of triples
        unrolled = Counter((t.src, t.trg) for t in expected if isinstance(t.expr, Concat))
        saw["multi-arc chain"] += any(n > 1 for n in unrolled.values())
    assert saw["fallback"] >= 100 and saw["multi-arc chain"] >= 20, saw


def test_plus_comp_rejects_a_negative_path_limit():
    with pytest.raises(ValueError, match="path limit must be at least 0, got -1"):
        plus_comp(Label("e"), (), path_limit=-1)
    # 0 is a limit like any other: no triple, no path, no warning
    log = InferenceLog()
    assert plus_comp(Label("e"), (), 0, log) == frozenset()
    assert log.warnings == []
