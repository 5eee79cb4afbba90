"""The paper's claim as an exact check: on a generated YAGO database, loaded
into SQLite with indexes on `Sr` and `Tr` and then analyzed, the enriched
SQL of both benchmark queries executes fewer virtual-machine steps than the
baseline SQL, and both return the evaluator's rows.

SQLite calls a progress handler once every STEP steps, so the count is
exact to within STEP and repeats from run to run, where wall time on a
shared machine swings by up to 2x. Counts depend on the SQLite version, so
the test compares them and pins none. SQLite 3.40.1 counted 290,300 baseline
against 91,300 enriched steps for the chain, and 82,100 against 47,600 for
the unrolled query; without the indexes the unrolled query's margin
narrows, to 83,900 against 54,800 steps.

A bounded range e{m,n} runs as one depth-bounded recursive CTE, so its
steps grow linearly in n: SQLite 3.40.1 counted 5,600 steps for
`isMarriedTo{1,8}`, 14,700 for {1,20} and 37,500 for {1,50} on a smaller
database; the test holds {1,50} under a fixed cap.
"""

import sqlite3

import pytest

from pathforge import eval_ucqt, gen_db, parse_query, rewrite
from pathforge.emit_sql import emit_sql

STEP = 100
QUERIES = {
    "chain": "x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)",
    "unrolled": "x,y <- (x, livesIn/isLocatedIn+, y)",
}


@pytest.fixture(scope="module")
def yago_db(yago_schema):
    return gen_db(yago_schema, seed=1, nodes_per_label=20, edge_prob=0.3)


def indexed_load(schema, db):
    """An in-memory SQLite load of db, indexed on Sr and Tr and analyzed."""
    conn = sqlite3.connect(":memory:")
    for label in sorted(schema.edge_labels):
        conn.execute(f"CREATE TABLE {label} (Sr TEXT, Tr TEXT)")
        conn.execute(f"CREATE INDEX {label}_sr ON {label} (Sr)")
        conn.execute(f"CREATE INDEX {label}_tr ON {label} (Tr)")
    for label in sorted(schema.node_labels):
        conn.execute(f"CREATE TABLE {label} (Sr TEXT)")
        conn.execute(f"CREATE INDEX {label}_sr ON {label} (Sr)")
    for edge in db.edges:
        conn.execute(f"INSERT INTO {edge.label} VALUES (?, ?)", (edge.src, edge.trg))
    for node in db.nodes:
        conn.execute(f"INSERT INTO {node.label} VALUES (?)", (node.id,))
    conn.execute("ANALYZE")
    return conn


@pytest.fixture(scope="module")
def conn(yago_schema, yago_db):
    conn = indexed_load(yago_schema, yago_db)
    yield conn
    conn.close()


def steps_and_rows(conn, sql, cap=None):
    """SQLite VM steps, to within STEP, and the rows of one statement; past
    cap steps, SQLite interrupts it and sqlite3.OperationalError is raised."""
    calls = 0

    def tick():
        nonlocal calls
        calls += 1
        return cap is not None and calls * STEP > cap

    conn.set_progress_handler(tick, STEP)
    try:
        rows = frozenset(conn.execute(sql).fetchall())
    finally:
        conn.set_progress_handler(None, STEP)
    return calls * STEP, rows


@pytest.mark.parametrize("text", QUERIES.values(), ids=QUERIES.keys())
def test_enriched_sql_executes_fewer_sqlite_steps_than_the_baseline(
    text, yago_schema, yago_db, conn
):
    query = parse_query(text)
    enriched = rewrite(query, yago_schema).enriched
    assert enriched != query
    base_steps, base_rows = steps_and_rows(conn, emit_sql(query, yago_schema, dialect="sqlite"))
    enriched_sql = emit_sql(enriched, yago_schema, dialect="sqlite")
    enriched_steps, enriched_rows = steps_and_rows(conn, enriched_sql)
    assert base_rows == enriched_rows == eval_ucqt(query, yago_db)
    assert base_rows
    assert enriched_steps < base_steps
    # the same statement again takes as many steps, to within one call
    again, _ = steps_and_rows(conn, enriched_sql)
    assert abs(again - enriched_steps) <= STEP


# Finding 11 of the roadmap: unrolled into the union of the chains e^1 ...
# e^50, this range passed 50,000,000 steps, and e{1,20} took 6,443,000
RANGE_STEP_CAP = 500_000


def test_a_range_runs_as_one_depth_bounded_cte_under_a_step_cap(yago_schema):
    db = gen_db(yago_schema, seed=1, nodes_per_label=6, edge_prob=0.3)
    query = parse_query("x,y <- (x, isMarriedTo{1,50}, y)")
    sql = emit_sql(query, yago_schema, dialect="sqlite")
    conn = indexed_load(yago_schema, db)
    try:
        steps, rows = steps_and_rows(conn, sql, cap=RANGE_STEP_CAP)
    finally:
        conn.close()
    assert rows == eval_ucqt(query, db)
    assert rows
    assert steps <= RANGE_STEP_CAP


def test_nested_ranges_emit_sql_linear_in_their_depth(yago_schema):
    # ten nested {1,2} ranges: 3^10 = 59,049 factors unrolled, 3.66 MB of
    # SQL; one CTE each, reading the one inside it
    path = "isMarriedTo" + "{1,2}" * 10
    sql = emit_sql(parse_query(f"x,y <- (x, {path}, y)"), yago_schema, dialect="sqlite")
    assert sql.count("(Sr, Tr, d) AS (") == 10
    assert len(sql.encode()) < 10_000
