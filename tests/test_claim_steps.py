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


@pytest.fixture(scope="module")
def conn(yago_schema, yago_db):
    conn = sqlite3.connect(":memory:")
    for label in sorted(yago_schema.edge_labels):
        conn.execute(f"CREATE TABLE {label} (Sr TEXT, Tr TEXT)")
        conn.execute(f"CREATE INDEX {label}_sr ON {label} (Sr)")
        conn.execute(f"CREATE INDEX {label}_tr ON {label} (Tr)")
    for label in sorted(yago_schema.node_labels):
        conn.execute(f"CREATE TABLE {label} (Sr TEXT)")
        conn.execute(f"CREATE INDEX {label}_sr ON {label} (Sr)")
    for edge in yago_db.edges:
        conn.execute(f"INSERT INTO {edge.label} VALUES (?, ?)", (edge.src, edge.trg))
    for node in yago_db.nodes:
        conn.execute(f"INSERT INTO {node.label} VALUES (?)", (node.id,))
    conn.execute("ANALYZE")
    yield conn
    conn.close()


def steps_and_rows(conn, sql):
    """SQLite VM steps, to within STEP, and the rows of one statement."""
    calls = 0

    def tick():
        nonlocal calls
        calls += 1
        return 0

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
