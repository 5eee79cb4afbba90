#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/checks.py

- a runaway compile is cut at the deadline and counted as one budget
  miss, not a crash and not a failure;
- a slow SQLite statement is interrupted through the progress handler and
  counted the same way;
- an operation that grows the process past the memory ceiling is cut;
- every workload runs end to end, untraced and traced, at tiny sizes, and
  reports exactly the metrics BENCHMARK.json names, with no failure.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import sqlite3
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from harness import DEADLINE_S, Budget, BudgetMiss, Outcome, load_sqlite, run_sql  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BLOWUP_B_SCHEMA,
    RUNAWAY_QUERY,
    YAGO_SCHEMA,
    CorpusRoundtrip,
    InferBlowup,
    YagoExec,
    _case,
    _gen_db,
    _load_schema,
    run_cases,
)

WORKDIR = run.OUT / "checks"
SLOW_SQL = "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) SELECT count(*) FROM c"


def check_compile_deadline() -> None:
    schema_path = WORKDIR / "runaway_schema.json"
    schema = _load_schema(BLOWUP_B_SCHEMA, schema_path)
    case = _case("runaway", schema, schema_path, RUNAWAY_QUERY, WORKDIR)
    db = _gen_db(schema, 0, 2, 0.5)
    case.add_instance("db", db, load_sqlite(schema, db))
    outcome = Outcome()
    start = time.perf_counter()
    budget = Budget(DEADLINE_S, 1024)
    timings = run_cases([case], outcome, None, "check", budget)
    elapsed = time.perf_counter() - start
    assert (outcome.attempted, outcome.failed, outcome.misses) == (1, 0, 1), vars(outcome)
    assert "deadline" in outcome.messages[0], outcome.messages
    assert timings == [{"compile_s": DEADLINE_S}], timings
    assert elapsed < DEADLINE_S + 2, f"cut after {elapsed:.2f} s"


def check_traced_deadline() -> None:
    """A budget miss inside traced calls leaves every span closed and no
    stale parent behind."""
    schema_path = WORKDIR / "runaway_schema.json"
    schema = _load_schema(BLOWUP_B_SCHEMA, schema_path)
    runaway = _case("runaway", schema, schema_path, RUNAWAY_QUERY, WORKDIR)
    small = _case("small", schema, schema_path, "x,y <- (x, e0/e0, y)", WORKDIR)
    for case in (runaway, small):
        db = _gen_db(schema, 0, 2, 0.5)
        case.add_instance("db", db, load_sqlite(schema, db))
    outcome = Outcome()
    tracer = Tracer()
    tracer.install()
    try:
        run_cases([runaway, small], outcome, tracer, "check", Budget(DEADLINE_S, 1024))
    finally:
        tracer.uninstall()
    assert (outcome.failed, outcome.misses) == (0, 1), vars(outcome)
    assert not tracer._stack, tracer._stack
    assert all(s.end >= s.start for s in tracer.spans)
    roots = [s.name for s in tracer.spans if s.query == "small#check" and s.parent < 0]
    assert roots.count("cli.run") == 1, roots


def check_sqlite_deadline() -> None:
    conn = sqlite3.connect(":memory:")
    start = time.perf_counter()
    try:
        run_sql(conn, SLOW_SQL, Budget(0.2, 1024))
    except BudgetMiss as miss:
        assert "deadline" in str(miss), miss
    else:
        raise AssertionError("the statement was not interrupted")
    assert time.perf_counter() - start < 2, "interrupt came late"
    # through the workload path: one miss, and the other operations still run
    schema_path = WORKDIR / "yago_schema.json"
    schema = _load_schema(YAGO_SCHEMA, schema_path)
    case = _case("slow", schema, schema_path, "x,y <- (x, livesIn, y)", WORKDIR)
    db = _gen_db(schema, 0, 3, 0.5)
    case.add_instance("db", db, load_sqlite(schema, db))
    case.instances[0].base_sql = SLOW_SQL
    outcome = Outcome()
    timings = run_cases([case], outcome, None, "check", Budget(0.2, 1024))
    assert (outcome.failed, outcome.misses) == (0, 1), vars(outcome)
    assert "sqlite_baseline_s" not in timings[0], timings
    assert outcome.attempted == 5, vars(outcome)


def check_memory_ceiling() -> None:
    budget = Budget(10, 16)
    chunks = []
    try:
        with budget.guard():
            for _ in range(64):
                chunks.append(bytearray(1 << 20))
                time.sleep(0.002)
    except BudgetMiss as miss:
        assert "grew" in str(miss), miss
    else:
        raise AssertionError("64 MB were allocated under a 16 MB ceiling")
    assert len(chunks) < 64


def _smoke(workload) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics, outcome, _ = run.run_workload(workload, seed=3, seconds=1.0, trace=trace)
        assert outcome.failed == 0, outcome.messages
        assert outcome.attempted > 0
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: unit for name, (value, unit) in metrics.items()}
        assert got == wanted, f"{key}: {sorted(set(got) ^ set(wanted))}"
        bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
        assert not bad, bad


def check_smoke_yago() -> None:
    _smoke(YagoExec(nodes=6))


def check_smoke_blowup() -> None:
    cases = [
        ("A", BLOWUP_B_SCHEMA, "x,y <- (x, (e0/[-e0]e0){1,2}, y)"),
        ("B", BLOWUP_B_SCHEMA, "x,y <- (x, e0{1,2}+[e0], y)"),
    ]
    _smoke(InferBlowup(cases=cases, timed_dbs=1))


def check_smoke_corpus() -> None:
    _smoke(CorpusRoundtrip(queries=20))


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    checks = [value for name, value in globals().items() if name.startswith("check_")]
    failed = 0
    for check in checks:
        start = time.perf_counter()
        try:
            check()
        except Exception as exc:  # report every check, then fail the run
            failed += 1
            print(f"FAIL {check.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {check.__name__} ({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
