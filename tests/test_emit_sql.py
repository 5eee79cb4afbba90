import json
import random
import re
import sqlite3

import pytest

from pathforge import (
    desugar,
    eval_ucqt,
    gen_db,
    load_schema,
    parse_path_expr,
    parse_query,
    rewrite,
    to_text,
)
from pathforge.ast import (
    BranchL,
    BranchR,
    Concat,
    Conj,
    Label,
    Repeat,
    Reverse,
    TransClos,
    Union,
    children,
    walk,
)
from pathforge.emit_cypher import emit_cypher
from pathforge.emit_sql import EmitError, check_labels, emit_sql
from pathforge.query import Conjunct, LabelAtom, Relation, UcqtQuery
from pathforge.schema import DbEdge, DbNode, GraphDB

from randutil import random_expr, random_schema, schema_edge_alphabet

Q2_ENRICHED = "SRC,TRG <- (SRC, knows/workAt/{Organisation}isLocatedIn, TRG)"
Q1_BASELINE = "SRC,TRG <- (SRC, knows/workAt/isLocatedIn, TRG)"


def golden(data_dir, name):
    return (data_dir / "goldens" / name).read_text()


def sqlite_rows(sql, db, schema):
    """Rows of emitted SQL run on an in-memory SQLite load of ``db``."""
    conn = sqlite3.connect(":memory:")
    try:
        for label in schema.edge_labels:
            conn.execute(f"CREATE TABLE {label} (Sr TEXT, Tr TEXT)")
        for label in schema.node_labels:
            conn.execute(f"CREATE TABLE {label} (Sr TEXT)")
        for edge in db.edges:
            conn.execute(f"INSERT INTO {edge.label} VALUES (?, ?)", (edge.src, edge.trg))
        for node in db.nodes:
            conn.execute(f"INSERT INTO {node.label} VALUES (?)", (node.id,))
        return frozenset(conn.execute(sql).fetchall())
    finally:
        conn.close()


def run_sql(query, schema, db):
    return sqlite_rows(emit_sql(query, schema, dialect="sqlite"), db, schema)


def test_enriched_golden(ldbc_schema, data_dir):
    sql = emit_sql(parse_query(Q2_ENRICHED), ldbc_schema)
    assert sql == golden(data_dir, "q2_enriched.sql")


def test_baseline_golden(ldbc_schema, data_dir):
    sql = emit_sql(parse_query(Q1_BASELINE), ldbc_schema)
    assert sql == golden(data_dir, "q1_baseline.sql")


def test_closure_golden(yago_schema, data_dir):
    sql = emit_sql(parse_query("x,y <- (x, dealsWith+, y)"), yago_schema)
    assert sql == golden(data_dir, "closure.sql")


def test_emission_is_stable(ldbc_schema):
    query = parse_query(Q2_ENRICHED)
    assert emit_sql(query, ldbc_schema) == emit_sql(query, ldbc_schema)


def test_dialects_share_query_text(yago_schema):
    query = parse_query("x,y <- (x, dealsWith+, y)")
    texts = {d: emit_sql(query, yago_schema, dialect=d) for d in ("postgres", "sqlite", "mysql")}
    assert texts["postgres"] == texts["sqlite"] == texts["mysql"]


def test_as_view_preambles(yago_schema):
    query = parse_query("x,y <- (x, owns, y)")
    assert emit_sql(query, yago_schema, as_view=True).startswith(
        "CREATE TEMPORARY VIEW query_result AS\n"
    )
    assert emit_sql(query, yago_schema, dialect="sqlite", as_view=True).startswith(
        "CREATE VIEW query_result AS\n"
    )
    assert emit_sql(query, yago_schema, dialect="mysql", as_view=True).startswith(
        "CREATE OR REPLACE VIEW query_result AS\n"
    )


def test_unknown_dialect_rejected(yago_schema):
    with pytest.raises(EmitError):
        emit_sql(parse_query("x,y <- (x, owns, y)"), yago_schema, dialect="oracle")


UNKNOWN_LABEL_CASES = [
    ("x,y <- (x, fliesTo, y)", "no edge label 'fliesTo' in the schema"),
    ("x,y <- (x, owns, y) && x:{ALIEN}", "no node label 'ALIEN' in the schema"),
    ("x,y <- (x, (fliesTo)+, y)", "no edge label 'fliesTo' in the schema"),
    ("x,y <- (x, owns[fliesTo], y)", "no edge label 'fliesTo' in the schema"),
    ("x,y <- (x, -fliesTo, y)", "no edge label 'fliesTo' in the schema"),
    ("x,y <- (x, livesIn/{ALIEN}isLocatedIn, y)", "no node label 'ALIEN' in the schema"),
]


def test_unknown_labels_rejected(yago_schema):
    for text, message in UNKNOWN_LABEL_CASES:
        with pytest.raises(EmitError, match=re.escape(message)):
            emit_sql(parse_query(text), yago_schema)


@pytest.mark.parametrize("target", ["sql:postgres", "sql:sqlite", "sql:mysql", "cypher"])
@pytest.mark.parametrize("text,message", UNKNOWN_LABEL_CASES)
def test_unknown_labels_rejected_alike_by_every_target(yago_schema, text, message, target):
    query = parse_query(text)
    with pytest.raises(EmitError) as info:
        if target == "cypher":
            emit_cypher(query, yago_schema)
        else:
            emit_sql(query, yago_schema, dialect=target.partition(":")[2])
    assert str(info.value) == message


def _first_unknown_label(query, schema):
    """The message for the first unknown label that a walk of every atom,
    shared subtrees walked again, meets; None when there is none."""

    def unknown_nodes(labels):
        unknown = labels - schema.node_labels
        return unknown and f"no node label {min(unknown)!r} in the schema"

    for conjunct in query.disjuncts:
        for rel in conjunct.relations:
            for sub in walk(rel.expr):
                if isinstance(sub, (Label, Reverse)) and sub.name not in schema.edge_labels:
                    return f"no edge label {sub.name!r} in the schema"
                for labels in sub.junctions if isinstance(sub, Concat) else ():
                    if labels is not None and unknown_nodes(labels):
                        return unknown_nodes(labels)
        for atom in conjunct.labels:
            if unknown_nodes(atom.labels):
                return unknown_nodes(atom.labels)
    return None


def test_check_labels_reports_the_first_unknown_label_a_full_walk_meets(yago_schema):
    # check_labels visits a subtree it has seen once; atoms here share one
    # subtree, within a conjunct and across conjuncts
    rng = random.Random(5)
    edges = sorted(yago_schema.edge_labels) + ["fliesTo", "swimsTo"]
    nodes = ["PERSON", "CITY", "ALIEN", "MARTIAN"]
    outcomes = set()
    for _ in range(300):
        shared = random_expr(rng, edges, 2)

        def expr():
            out = random_expr(rng, edges, 2)
            if rng.random() < 0.6:
                labels = frozenset(rng.sample(nodes, rng.randint(1, 2)))
                out = Concat(shared, out, labels if rng.random() < 0.5 else None)
            return out

        disjuncts = tuple(
            Conjunct(
                tuple(Relation("x", expr(), "y") for _ in range(rng.randint(1, 2))),
                tuple(LabelAtom("x", frozenset({rng.choice(nodes)})) for _ in range(rng.randint(0, 1))),
            )
            for _ in range(rng.randint(1, 3))
        )
        query = UcqtQuery(("x", "y"), disjuncts)
        expected = _first_unknown_label(query, yago_schema)
        outcomes.add(expected and expected.split("'")[1])
        if expected is None:
            check_labels(query, yago_schema)
        else:
            with pytest.raises(EmitError) as info:
                check_labels(query, yago_schema)
            assert str(info.value) == expected
    assert outcomes == {None, "fliesTo", "swimsTo", "ALIEN", "MARTIAN"}


def test_empty_query_emits_empty_select(yago_schema):
    sql = emit_sql(parse_query("x,y <- EMPTY"), yago_schema)
    assert sql == "SELECT NULL AS x, NULL AS y WHERE 1 = 0;\n"
    assert "FROM DUAL" in emit_sql(parse_query("x,y <- EMPTY"), yago_schema, dialect="mysql")


def test_cte_numbering_left_to_right(yago_schema):
    sql = emit_sql(parse_query("x,y <- (x, isMarriedTo+/dealsWith+, y)"), yago_schema)
    assert sql.index("tc_1(Sr, Tr) AS") < sql.index("tc_2(Sr, Tr) AS")
    assert "isMarriedTo" in sql.split("tc_2")[1].split(")")[0] or "isMarriedTo" in sql


def test_nested_closure_references_inner_cte(yago_schema):
    sql = emit_sql(parse_query("x,y <- (x, (isMarriedTo+/livesIn)+, y)"), yago_schema)
    # the outer fixpoint's base must read from the inner one
    outer = sql.split("tc_2(Sr, Tr) AS (")[1]
    assert "tc_1" in outer


def test_repeated_closure_shares_one_cte(yago_schema, fig2_db):
    query = parse_query(
        "x,y <- (x, dealsWith+, y) && (y, isMarriedTo+/dealsWith+, z)"
        " || (x, livesIn/isLocatedIn/dealsWith+, y)"
    )
    sql = emit_sql(query, yago_schema)
    assert sql.count("(Sr, Tr) AS (") == 2
    assert sql.count("tc_1 AS ") == 3  # the dealsWith+ closure, read thrice
    assert run_sql(query, yago_schema, fig2_db) == eval_ucqt(query, fig2_db)


# bare table names sit directly after FROM/JOIN; subqueries start with "("
IDENT = re.compile(r"(?:FROM|JOIN)\s+([A-Za-z_][A-Za-z0-9_]*)")


def test_only_schema_tables_and_ctes_appear(yago_schema):
    rng = random.Random(515)
    allowed = set(yago_schema.edge_labels) | set(yago_schema.node_labels) | {"DUAL"}
    for _ in range(25):
        expr = random_expr(
            rng, ["owns", "livesIn", "isLocatedIn", "dealsWith", "isMarriedTo"], depth=4
        )
        sql = emit_sql(parse_query(f"x,y <- (x, {to_text(expr)}, y)"), yago_schema)
        for name in IDENT.findall(sql):
            assert name in allowed or name.startswith("tc_"), (name, sql)


def test_self_loop_atom_constrains_both_columns(yago_schema, fig2_db):
    # both endpoints on one atom, which is one FROM item: the equality
    # compares the item's two columns in a WHERE clause
    query = parse_query("x <- (x, isMarriedTo/isMarriedTo, x)")
    sql = emit_sql(query, yago_schema)
    assert "WHERE e1.Sr = e1.Tr" in sql
    assert sqlite_rows(sql, fig2_db, yago_schema) == eval_ucqt(query, fig2_db) == {("n2",), ("n3",)}
    single = parse_query("x <- (x, isMarriedTo, x)")
    sql = emit_sql(single, yago_schema)
    assert "WHERE e1.Sr = e1.Tr" in sql
    assert sqlite_rows(sql, fig2_db, yago_schema) == frozenset()


def test_a_range_is_one_depth_bounded_cte_and_a_fixed_power_a_chain(yago_schema):
    db = gen_db(yago_schema, seed=1, nodes_per_label=6, edge_prob=0.3)
    rng = parse_query("x,y <- (x, isMarriedTo{2,3}, y)")
    sql = emit_sql(rng, yago_schema, dialect="sqlite")
    assert sql.startswith("WITH RECURSIVE tc_1(Sr, Tr, d) AS (\n")
    assert sql.count("(Sr, Tr, d) AS (") == 1
    # the edge table appears once in the base and once in the step
    assert sql.count("isMarriedTo") == 2
    assert "WHERE tc_1.d < 3\n" in sql
    assert "(SELECT DISTINCT Sr, Tr FROM tc_1 WHERE d >= 2) AS e1" in sql
    # a lower bound of 1 reads every depth
    one = emit_sql(parse_query("x,y <- (x, isMarriedTo{1,3}, y)"), yago_schema)
    assert "(SELECT DISTINCT Sr, Tr FROM tc_1) AS e1" in one
    # ranges of one body share a CTE when their upper bounds are equal
    shared = parse_query("x,y <- (x, isMarriedTo{1,3}/isMarriedTo{2,3}/isMarriedTo{1,2}, y)")
    assert emit_sql(shared, yago_schema).count("(Sr, Tr, d) AS (") == 2
    # a fixed power is the chain of its copies, with no CTE
    power = parse_query("x,y <- (x, isMarriedTo{2,2}, y)")
    chain = parse_query("x,y <- (x, isMarriedTo/isMarriedTo, y)")
    assert emit_sql(power, yago_schema) == emit_sql(chain, yago_schema)
    assert "WITH" not in emit_sql(power, yago_schema)
    for query in (rng, power, shared, parse_query("x,y <- (x, isMarriedTo{1,3}, y)")):
        want = eval_ucqt(query, db)
        assert want
        assert run_sql(query, yago_schema, db) == want


def test_multi_label_junction_unions_node_tables(yago_schema):
    sql = emit_sql(parse_query("x,y <- (x, livesIn/{CITY,REGION}isLocatedIn, y)"), yago_schema)
    assert "(SELECT Sr FROM CITY UNION SELECT Sr FROM REGION)" in sql


README_QUERY = "x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)"
UNROLLED_QUERY = "x,y <- (x, livesIn/isLocatedIn+, y)"


def test_each_relation_atom_is_one_projected_from_item(yago_schema):
    enriched = rewrite(parse_query(README_QUERY), yago_schema).enriched
    (conjunct,) = enriched.disjuncts
    sql = emit_sql(enriched, yago_schema)
    # the outer SELECT's FROM items; recursive CTE lines are indented as
    # "  SELECT" and "  UNION" and never match
    items = re.findall(r"^  (?:FROM|JOIN) (.*) AS (\w+)(?: ON .*)?;?$", sql, re.M)
    atom_items = [text for text, alias in items if alias.startswith("e")]
    assert len(atom_items) == len(conjunct.relations) == 2
    for rel, text in zip(conjunct.relations, atom_items):
        assert isinstance(desugar(rel.expr), Concat)
        assert text.startswith("(SELECT DISTINCT "), text
    # a bare closure needs no derived table
    assert "(SELECT" not in emit_sql(parse_query("x,y <- (x, dealsWith+, y)"), yago_schema)


def test_sqlite_matches_evaluator_on_yago_queries(yago_schema):
    db = gen_db(yago_schema, seed=3, nodes_per_label=8, edge_prob=0.3)
    for text in (README_QUERY, UNROLLED_QUERY):
        query = parse_query(text)
        enriched = rewrite(query, yago_schema).enriched
        assert enriched != query, text
        want = eval_ucqt(query, db)
        assert want, text
        assert run_sql(query, yago_schema, db) == want, text
        assert run_sql(enriched, yago_schema, db) == want, text


@pytest.mark.parametrize("labelled", [False, True])
@pytest.mark.parametrize("length", [64, 65, 130])
def test_sqlite_runs_conjuncts_of_more_than_64_atoms(length, labelled, yago_schema):
    # SQLite joins at most 64 tables in one SELECT; past that, the atoms are
    # nested in groups of 64
    db = gen_db(yago_schema, seed=2, nodes_per_label=4, edge_prob=0.5)
    relations = tuple(Relation(f"x{i}", Label("isMarriedTo"), f"x{i + 1}") for i in range(length))
    person = frozenset({"PERSON"})
    labels = tuple(LabelAtom(f"x{i}", person) for i in range(0, length, 20)) if labelled else ()
    query = UcqtQuery(("x0", "x33", f"x{length}"), (Conjunct(relations, labels),))
    want = eval_ucqt(query, db)
    assert want
    assert run_sql(query, yago_schema, db) == want
    nested = "(SELECT DISTINCT" in emit_sql(query, yago_schema)
    assert nested == (len(relations) + len(labels) > 64)


def test_repeated_or_empty_label_atoms_are_refused_by_every_backend(yago_schema):
    db = gen_db(yago_schema, seed=1, nodes_per_label=4, edge_prob=0.5)
    located = Relation("x", Label("isLocatedIn"), "y")

    def query(*label_sets):
        atoms = tuple(LabelAtom("x", frozenset(labels)) for labels in label_sets)
        return UcqtQuery(("x", "y"), (Conjunct((located,), atoms),))

    # every stage takes what the parser makes: one label atom per variable,
    # none of them empty; an empty set would render as the SQL item `()`
    assert eval_ucqt(query({"CITY"}), db) == run_sql(query({"CITY"}), yago_schema, db)
    met = query({"CITY"}, {"CITY", "PROPERTY"})
    empty = query({"CITY", "PROPERTY"}, {"CITY"}, {"PROPERTY"})
    for bad in (met, empty, query(set())):
        for stage in (emit_sql, emit_cypher, rewrite, lambda q, _: eval_ucqt(q, db)):
            with pytest.raises(ValueError):
                stage(bad, yago_schema)


def test_sqlite_matches_evaluator_single_atom():
    rng = random.Random(616)
    for index in range(60):
        schema = random_schema(rng)
        alphabet = schema_edge_alphabet(schema)
        expr = random_expr(rng, alphabet, depth=4)
        query = parse_query(f"x,y <- (x, {to_text(expr)}, y)")
        db = gen_db(schema, seed=index, nodes_per_label=3, edge_prob=0.4)
        assert run_sql(query, schema, db) == eval_ucqt(query, db), to_text(expr)


def test_sqlite_matches_evaluator_conjuncts_and_enrichment():
    rng = random.Random(717)
    for index in range(30):
        schema = random_schema(rng)
        alphabet = schema_edge_alphabet(schema)
        labels = sorted(schema.node_labels)
        e1 = to_text(random_expr(rng, alphabet, depth=3))
        e2 = to_text(random_expr(rng, alphabet, depth=2))
        label = rng.choice(labels)
        text = rng.choice(
            [
                f"x,y <- (x, {e1}, y) && (y, {e2}, z) && z:{{{label}}}",
                f"x,y <- (x, {e1}, y) || (x, {e2}, y)",
                f"x,y <- (x, {e1}, y) && x:{{{label}}}",
                f"x,y <- (x, {e1}, x) && (x, {e2}, y)",
                # a head variable no atom mentions, and one only a label
                # atom mentions
                f"x,w <- (x, {e1}, y)",
                f"x,y <- (x, {e1}, y) && w:{{{label}}}",
            ]
        )
        query = parse_query(text)
        db = gen_db(schema, seed=index, nodes_per_label=3, edge_prob=0.4)
        want = eval_ucqt(query, db)
        assert run_sql(query, schema, db) == want, text
        enriched = rewrite(query, schema).enriched
        if enriched.disjuncts:
            assert run_sql(enriched, schema, db) == want, text
        else:
            assert want == frozenset()


def test_sqlite_matches_evaluator_on_junction_annotations():
    # arbitrary junction label sets, unlike the rewriter's, which every
    # schema-conforming database satisfies, so the node-set joins must filter
    rng = random.Random(818)
    for index in range(40):
        schema = random_schema(rng)
        alphabet = schema_edge_alphabet(schema)
        labels = sorted(schema.node_labels)
        e1 = to_text(random_expr(rng, alphabet, depth=2))
        e2 = to_text(random_expr(rng, alphabet, depth=2))
        junction = ",".join(rng.sample(labels, rng.randint(1, len(labels))))
        chain = f"({e1})/{{{junction}}}({e2})"
        text = rng.choice([f"x,y <- (x, {chain}, y)", f"x,y <- (x, ({chain})+|{e1}, y)"])
        query = parse_query(text)
        db = gen_db(schema, seed=index, nodes_per_label=3, edge_prob=0.4)
        assert run_sql(query, schema, db) == eval_ucqt(query, db), text


def test_sqlite_matches_evaluator_on_unions_and_conjunctions_of_three_or_more():
    rng = random.Random(919)
    nonempty = 0
    for index in range(40):
        schema = random_schema(rng)
        alphabet = schema_edge_alphabet(schema)
        e1, e2, e3, e4 = (to_text(random_expr(rng, alphabet, depth=2)) for _ in range(4))
        op = "|&"[index % 2]
        # grouped to the left, and nested to the right
        text = rng.choice([f"({e1}){op}({e2}){op}({e3})", f"({e1}){op}(({e2}){op}(({e3}){op}({e4})))"])
        query = parse_query(f"x,y <- (x, {text}, y)")
        assert len(children(query.disjuncts[0].relations[0].expr)) >= 3, text
        db = gen_db(schema, seed=index, nodes_per_label=3, edge_prob=0.4)
        want = eval_ucqt(query, db)
        assert run_sql(query, schema, db) == want, text
        nonempty += bool(want)
    assert nonempty >= 10, nonempty


def _random_ranges(rng, alphabet, depth):
    """A random path in which repetitions sit inside and around every other
    operator: a range e{m,n} of n up to 200, or a fixed power e{m,m} of m up
    to 3, is two in five of its inner nodes. Most lower bounds are small,
    where a path of exactly m steps is least often also one of more."""
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(alphabet)
        return Reverse(name) if rng.random() < 0.2 else Label(name)
    sub = lambda: _random_ranges(rng, alphabet, depth - 1)
    kinds = ["range"] * 3 + ["power", "closure", "branch", "conj", "union", "chain", "chain"]
    kind = rng.choice(kinds)
    if kind == "range":
        hi = rng.choice([2, 3, 4, 5, 20, 200])
        lo = hi - 1 if rng.random() < 0.25 else rng.randint(1, min(hi - 1, 3))
        return Repeat(sub(), lo, hi)
    if kind == "power":
        return Repeat(sub(), *[rng.randint(1, 3)] * 2)
    if kind == "closure":
        return TransClos(sub())
    if kind == "branch":
        return rng.choice([BranchR, BranchL])(sub(), sub())
    return {"conj": Conj, "union": Union, "chain": Concat}[kind](sub(), sub())


def _is_range(expr):
    return isinstance(expr, Repeat) and expr.lo < expr.hi


def _range_placements(expr):
    """The ways ranges and the other operators nest in expr: 'range in
    range' and 'range in power' for a range inside a range or a fixed power,
    'range in TransClos' and so on for one inside another operator, and
    'TransClos in range' for a closure inside a range."""
    found = set()
    for outer in walk(expr):
        inner = [node for child in children(outer) for node in walk(child)]
        if any(map(_is_range, inner)):
            kind = type(outer).__name__
            if isinstance(outer, Repeat):
                kind = "range" if _is_range(outer) else "power"
            found.add(f"range in {kind}")
        if _is_range(outer) and any(isinstance(node, TransClos) for node in inner):
            found.add("TransClos in range")
    return found


def test_sqlite_matches_evaluator_on_random_ranges():
    # a range is one depth-bounded recursive CTE, a fixed power the chain
    # of its copies; both against the evaluator, which keeps the repetition.
    # Sparse databases keep paths of different lengths apart
    rng = random.Random(2016)
    placements, nonempty = set(), 0
    for index in range(120):
        if index % 6 == 0:
            schema = random_schema(rng)
            alphabet = schema_edge_alphabet(schema)
            labels = sorted(schema.node_labels)
        expr = _random_ranges(rng, alphabet, depth=3)
        placements |= _range_placements(expr)
        e2 = to_text(_random_ranges(rng, alphabet, depth=1))
        text = rng.choice(
            [
                f"x,y <- (x, {to_text(expr)}, y)",
                f"x,y <- (x, {to_text(expr)}, y) && (y, {e2}, z) && z:{{{rng.choice(labels)}}}",
            ]
        )
        query = parse_query(text)
        db = gen_db(schema, seed=index, nodes_per_label=4, edge_prob=(0.1, 0.3)[index % 2])
        want = eval_ucqt(query, db)
        assert run_sql(query, schema, db) == want, text
        nonempty += bool(want)
    assert nonempty >= 40, nonempty
    assert placements >= {
        "range in range",
        "range in power",
        "range in TransClos",
        "range in BranchR",
        "range in BranchL",
        "range in Conj",
        "range in Union",
        "range in Concat",
        "TransClos in range",
    }, placements


def married_ring(size):
    """PERSON nodes p0, p1, ... each married to the next around a ring: every
    node has one isMarriedTo successor, so a long chain of them stays cheap."""
    nodes = tuple(DbNode(id=f"p{i}", label="PERSON", properties=()) for i in range(size))
    edges = tuple(
        DbEdge(id=f"m{i}", label="isMarriedTo", src=f"p{i}", trg=f"p{(i + 1) % size}")
        for i in range(size)
    )
    return GraphDB(nodes=nodes, edges=edges)


def _ops(op, count, operand="isMarriedTo"):
    return op.join([operand] * count)


# SQLite joins at most 64 tables in one SELECT, and every FROM item is one
# table to it; it unites at most 500 terms in one compound SELECT. Each
# case: its path, and whether it passes a limit, so that part of it is
# nested; a case at a limit is emitted as before
PAST_SQLITE_LIMITS = {
    "chain of 64": (_ops("/", 64), False),
    "chain of 65": (_ops("/", 65), True),
    "chain of 4100": (_ops("/", 4100), True),
    # each junction is one more item of the chain's join: 32 + 31 = 63
    "32 factors and junctions": (_ops("/{PERSON}", 32), False),
    "33 factors and junctions": (_ops("/{PERSON}", 33), True),
    "junction before 64 operands": (f"isMarriedTo/{{PERSON}}({_ops('&', 64)})", False),
    "conjunction of 64": (_ops("&", 64), False),
    "conjunction of 65": (_ops("&", 65), True),
    "conjunction of 4100": (_ops("&", 4100), True),
    "union of 500": (_ops("|", 500), False),
    "union of 501": (_ops("|", 501), True),
    # the closure's recursive SELECT is one more compound term; its join
    # is of two tables, since the conjunction is one
    "closure of a union of 500": (f"({_ops('|', 500)})+", True),
    "closure of 64 operands": (f"({_ops('&', 64)})+", False),
}


@pytest.mark.parametrize("path, nested", PAST_SQLITE_LIMITS.values(), ids=PAST_SQLITE_LIMITS.keys())
def test_sqlite_runs_atoms_past_its_join_and_compound_limits(path, nested, yago_schema):
    db = married_ring(5)
    query = parse_query(f"x,y <- (x, {path}, y)")
    sql = emit_sql(query, yago_schema, dialect="sqlite")
    want = eval_ucqt(query, db)
    assert want
    assert sqlite_rows(sql, db, yago_schema) == want
    assert _nested(sql) == nested


def _nested(sql):
    # a run of joined items (chain steps, junctions, conjunction operands or
    # atoms), or a run of union terms
    return " AS g1" in sql or "SELECT * FROM (" in sql


def test_sqlite_runs_atoms_that_join_more_than_64_tables_together(yago_schema):
    # each atom joins 40 tables, but is one SELECT DISTINCT table to the
    # conjunct, so nothing is nested
    db = married_ring(5)
    wide = _ops("&", 40)
    query = parse_query(f"x,z <- (x, {wide}, y) && (y, {wide}, z)")
    sql = emit_sql(query, yago_schema, dialect="sqlite")
    assert not _nested(sql)
    want = eval_ucqt(query, db)
    assert want
    assert sqlite_rows(sql, db, yago_schema) == want


MARRIED, BACK, PERSON = Label("isMarriedTo"), Reverse("isMarriedTo"), frozenset({"PERSON"})


def _around_limits(rng, depth, wide):
    """A random path over isMarriedTo, nonempty on married_ring: a step, or
    a chain, conjunction or union of 60 to 70 operands, a branch or a
    closure, with one operand nested a level further while depth lasts;
    wide collects the depth of each chain, conjunction and union. On the
    ring every path is a nonempty set of rotations, so each operand of a
    conjunction contains its first one, and no conjunction is empty."""

    def step():
        return rng.choice([MARRIED, BACK])

    if depth == 0:
        return step()
    nested = _around_limits(rng, depth - 1, wide)
    kind = rng.choice(["chain", "conj", "union", "branch", "closure"])
    if kind == "branch":
        return rng.choice([BranchR(nested, step()), BranchL(step(), nested)])
    if kind == "closure":
        return TransClos(nested)
    wide.append(depth)
    count = rng.randint(60, 70)
    if kind == "chain":
        operands = [step() for _ in range(count - 1)]
        junctions = [rng.choice([None, PERSON]) for _ in range(count - 1)]
        operands.insert(rng.randrange(count), nested)
        return Concat.chain(operands, junctions)
    if kind == "union":
        operands = [step() for _ in range(count - 1)]
        operands.insert(rng.randrange(count), nested)
        return Union.chain(operands)
    first = step()
    supersets = [
        lambda: first,
        lambda: TransClos(first),
        lambda: Union(first, step()),
        lambda: BranchR(first, step()),
        lambda: BranchL(step(), first),
        # a step and its reversal lead back to where they started
        lambda: Concat.chain([first, MARRIED, BACK], [PERSON, None]),
    ]
    operands = [first] + [rng.choice(supersets)() for _ in range(count - 2)]
    operands.insert(rng.randrange(1, count), rng.choice([Union(first, nested), BranchR(first, nested)]))
    return Conj.chain(operands)


def test_sqlite_matches_evaluator_on_random_nests_around_the_join_limit(yago_schema):
    rng = random.Random(4064)
    db = married_ring(5)
    outcomes, levels = set(), set()
    for _ in range(40):
        wide = []
        path = _around_limits(rng, 3, wide)
        query = UcqtQuery(("x", "y"), (Conjunct((Relation("x", path, "y"),), ()),))
        sql = emit_sql(query, yago_schema, dialect="sqlite")
        want = eval_ucqt(query, db)
        assert want
        assert sqlite_rows(sql, db, yago_schema) == want, to_text(path)
        outcomes.add(_nested(sql))
        levels.add(len(set(wide)))
    # runs nested and not, and operands of 60 to 70 at one, two and three
    # depths
    assert outcomes == {False, True}
    assert levels >= {1, 2, 3}, levels


@pytest.mark.parametrize("count", [500, 501, 1200])
def test_sqlite_runs_queries_of_more_than_500_disjuncts(count, yago_schema):
    db = married_ring(5)
    paths = ["isMarriedTo", "isMarriedTo/isMarriedTo", "-isMarriedTo"]
    disjuncts = tuple(
        Conjunct((Relation("x", parse_path_expr(paths[i % 3]), "y"),), ()) for i in range(count)
    )
    query = UcqtQuery(("x", "y"), disjuncts)
    sql = emit_sql(query, yago_schema, dialect="sqlite")
    assert ("SELECT * FROM (" in sql) == (count > 500)
    want = eval_ucqt(query, db)
    assert len(want) == 15
    assert sqlite_rows(sql, db, yago_schema) == want


def _schema(nodes, edges):
    return load_schema(
        json.dumps(
            {
                "nodes": [{"label": label} for label in nodes],
                "edges": [{"src": s, "label": l, "trg": t} for s, l, t in edges],
            }
        )
    )


@pytest.mark.parametrize("label", ["tc_1", "TC_1"])
def test_a_label_named_like_a_cte_keeps_its_table(label):
    # unquoted SQL names ignore case, so the first closure's CTE cannot be
    # tc_1 here: it would shadow the label's table
    schema = _schema(["A"], [("A", label, "A"), ("A", "e", "A")])
    db = GraphDB(
        nodes=tuple(DbNode(id=f"n{i}", label="A", properties=()) for i in (1, 2, 3)),
        edges=(
            DbEdge(id="d1", label=label, src="n1", trg="n2"),
            DbEdge(id="d2", label="e", src="n2", trg="n3"),
            DbEdge(id="d3", label="e", src="n3", trg="n1"),
        ),
    )
    query = parse_query(f"x,y <- (x, {label}/e+, y)")
    sql = emit_sql(query, schema, dialect="sqlite")
    assert "WITH RECURSIVE tc_2(Sr, Tr) AS (" in sql
    assert eval_ucqt(query, db) == {("n1", "n1"), ("n1", "n3")}
    assert sqlite_rows(sql, db, schema) == eval_ucqt(query, db)


CTE_LIKE_LABELS = ["tc_2", "TC_1", "tc_3", "e"]


def test_sqlite_matches_evaluator_when_labels_are_named_like_ctes():
    rng = random.Random(919)
    for index in range(300):
        if index % 10 == 0:
            nodes = [f"N{i}" for i in range(rng.randint(1, 3))]
            # every label at least once, then a few more signatures
            edges = {(rng.choice(nodes), label, rng.choice(nodes)) for label in CTE_LIKE_LABELS}
            for _ in range(rng.randint(0, 4)):
                edges.add((rng.choice(nodes), rng.choice(CTE_LIKE_LABELS), rng.choice(nodes)))
            schema = _schema(nodes, sorted(edges))
        expr = to_text(random_expr(rng, CTE_LIKE_LABELS, depth=4))
        query = parse_query(f"x,y <- (x, {expr}, y)")
        db = gen_db(schema, seed=index, nodes_per_label=3, edge_prob=0.4)
        want = eval_ucqt(query, db)
        assert run_sql(query, schema, db) == want, expr
        enriched = rewrite(query, schema).enriched
        if enriched.disjuncts:
            assert run_sql(enriched, schema, db) == want, expr
        else:
            assert want == frozenset()
