"""Timing, budget and SQLite helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pathforge.cli
import pathforge.emit_sql
import pathforge.evaluator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# every corpus operation has a budget: a 1 s deadline (README.md records how
# the corpus latency distribution sits around it), and a cap on how far it
# may grow the resident memory
DEADLINE_S = 1.0
HEADROOM_MB = 32
TICK_S = 0.02

# cold start: every run starts this many fresh processes on the README query
COLD_PROCESSES = 7

EMIT_TARGETS = ("sql:sqlite", "cypher")

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """The process's resident set size now."""
    with open("/proc/self/statm", "rb") as statm:
        return int(statm.read().split()[1]) * _PAGE_MB


class BudgetMiss(Exception):
    """An operation ran past its deadline or its memory ceiling."""


class Budget:
    """Per-operation limits: wall-clock seconds, and growth of the process's
    resident memory in MB over what it was when the operation began."""

    def __init__(self, seconds: float, headroom_mb: float):
        self.seconds = seconds
        self.headroom_mb = headroom_mb

    def _limits(self) -> tuple[float, float]:
        return time.perf_counter() + self.seconds, rss_mb() + self.headroom_mb

    def _reason(self, due: float, ceiling: float) -> str | None:
        if time.perf_counter() >= due:
            return f"missed the {self.seconds:g} s deadline"
        if rss_mb() > ceiling:
            return f"grew the process by more than {self.headroom_mb:g} MB"
        return None

    @contextlib.contextmanager
    def guard(self):
        """Interrupt Python code inside the block with BudgetMiss."""
        due, ceiling = self._limits()

        def tick(signum, frame):
            reason = self._reason(due, ceiling)
            if reason:
                raise BudgetMiss(reason)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def progress_handler(self, why: list):
        """A SQLite progress handler that interrupts the statement past the budget."""
        due, ceiling = self._limits()
        calls = 0

        def check() -> bool:
            nonlocal calls
            calls += 1
            if time.perf_counter() < due and calls % 64:
                return False
            reason = self._reason(due, ceiling)
            if reason:
                why.append(reason)
            return reason is not None

        return check


class Outcome:
    """Attempted and failed operations and budget misses, with the first few
    messages.

    A budget miss is an operation the benchmark cut at its deadline or memory
    ceiling. It gave no answer, so nothing wrong was returned; it is counted
    apart from the failures, because the operations near the deadline land
    on either side of it from run to run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = 0
        self.messages: list[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        self._note(message)

    def miss(self, message: str) -> None:
        self.misses += 1
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)


def load_sqlite(schema, db) -> sqlite3.Connection:
    """The relational graph encoding of ``db`` in memory, indexed and analyzed."""
    conn = sqlite3.connect(":memory:", cached_statements=0)
    for label in sorted(schema.edge_labels):
        conn.execute(f"CREATE TABLE {label} (Sr TEXT, Tr TEXT)")
    for label in sorted(schema.node_labels):
        conn.execute(f"CREATE TABLE {label} (Sr TEXT)")
    by_label: dict[str, list] = {}
    for edge in db.edges:
        by_label.setdefault(edge.label, []).append((edge.src, edge.trg))
    for label, rows in by_label.items():
        conn.executemany(f"INSERT INTO {label} VALUES (?, ?)", rows)
    nodes: dict[str, list] = {}
    for node in db.nodes:
        nodes.setdefault(node.label, []).append((node.id,))
    for label, rows in nodes.items():
        conn.executemany(f"INSERT INTO {label} VALUES (?)", rows)
    for label in sorted(schema.edge_labels):
        conn.execute(f"CREATE INDEX {label}_sr ON {label} (Sr)")
        conn.execute(f"CREATE INDEX {label}_tr ON {label} (Tr)")
    for label in sorted(schema.node_labels):
        conn.execute(f"CREATE INDEX {label}_sr ON {label} (Sr)")
    conn.execute("ANALYZE")
    conn.commit()
    return conn


def statement(sql: str) -> str:
    return sql.rstrip().rstrip(";")


def run_sql(conn: sqlite3.Connection, sql: str, budget: Budget | None = None):
    """Rows of one statement and its wall time; BudgetMiss past the budget."""
    why: list[str] = []
    if budget is not None:
        conn.set_progress_handler(budget.progress_handler(why), 1000)
    try:
        start = time.perf_counter()
        rows = frozenset(conn.execute(sql).fetchall())
        return rows, time.perf_counter() - start
    except sqlite3.OperationalError:
        if why:
            raise BudgetMiss(why[0]) from None
        raise
    finally:
        if budget is not None:
            conn.set_progress_handler(None, 0)


def query_plan(conn: sqlite3.Connection, sql: str) -> list[str]:
    return [row[3] for row in conn.execute("EXPLAIN QUERY PLAN " + sql).fetchall()]


def plan_counts(plan: list[str]) -> dict[str, int]:
    return {
        "auto_indexes": sum("AUTOMATIC" in line for line in plan),
        "scans": sum(line.startswith("SCAN") for line in plan),
    }


def pipeline_argv(schema_path: Path, query_path: Path) -> list[str]:
    argv = ["pipeline", "--json", "--schema", str(schema_path), "--query", str(query_path)]
    for target in EMIT_TARGETS:
        argv += ["--target", target]
    return argv


def compile_query(schema_path: Path, query_path: Path, budget: Budget | None = None):
    """The in-process ``pathforge pipeline --json`` document and its wall time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with budget.guard() if budget else contextlib.nullcontext():
            start = time.perf_counter()
            code = pathforge.cli.run(pipeline_argv(schema_path, query_path))
            elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"pipeline exited with {code}")
    return json.loads(out.getvalue()), elapsed


def evaluate(query, db, budget: Budget | None = None, stats=None):
    """Rows of the reference evaluator and its wall time."""
    with budget.guard() if budget else contextlib.nullcontext():
        start = time.perf_counter()
        rows = pathforge.evaluator.eval_ucqt(query, db, stats)
        return rows, time.perf_counter() - start


def baseline_sql(query, schema) -> str:
    return statement(pathforge.emit_sql.emit_sql(query, schema, dialect="sqlite"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PATHFORGE_NO_COLOR"] = "1"
    return env


def cold_cli(schema_path: Path, query_path: Path, expected: str, outcome: Outcome) -> float:
    """Wall time in ms of one fresh ``python -m pathforge.cli pipeline`` process."""
    argv = [sys.executable, "-m", "pathforge.cli", *pipeline_argv(schema_path, query_path)]
    outcome.attempt()
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=60)
    except subprocess.TimeoutExpired:
        outcome.fail("cold CLI: no exit within 60 s")
        return (time.perf_counter() - start) * 1000
    elapsed = (time.perf_counter() - start) * 1000
    if done.returncode != 0:
        outcome.fail(f"cold CLI: exit {done.returncode}: {done.stderr.strip()[-200:]}")
        return elapsed
    try:
        enriched = json.loads(done.stdout)["enriched"]
    except (ValueError, KeyError, TypeError) as exc:
        outcome.fail(f"cold CLI: unreadable output: {type(exc).__name__}: {exc}")
        return elapsed
    if enriched != expected:
        outcome.fail("cold CLI: enriched query differs from the in-process one")
    return elapsed


def import_ms(repeats: int = 7) -> float:
    """Import time of pathforge.cli beyond a bare interpreter's start-up."""
    env = child_env()

    def median_ms(code: str) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append((time.perf_counter() - start) * 1000)
        return statistics.median(times)

    return median_ms("import pathforge.cli") - median_ms("pass")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than eleven
    samples no such percentile exists and the maximum is returned with
    percentile 100 and nothing beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def round_median(rounds: list[tuple[list[dict], float]], key: str) -> float:
    """Median over (round, scale) pairs of the round's total times its scale.

    A round where a case lacks the value is left out.
    """
    totals = [
        sum(case[key] for case in r) * scale
        for r, scale in rounds
        if r and all(key in case for case in r)
    ]
    if not totals:
        raise RuntimeError(f"no round produced {key}")
    return statistics.median(totals)


def query_geomean(rounds: list[tuple[list[dict], float]], key: str) -> float:
    """Geometric mean over every query of the run of its scaled value.

    Robust to the few runaway queries a corpus holds.
    """
    values = [case[key] * scale for r, scale in rounds for case in r if key in case]
    if not values:
        raise RuntimeError(f"no query produced {key}")
    return math.exp(statistics.fmean(math.log(v) for v in values))


# The machine's speed drifts by up to twice within a run, and every layer
# drifts together (round times of the evaluator and of SQLite correlate at
# 0.4-0.9). A fixed computation that touches no pathforge code is timed
# before and after every round, and the end-to-end times are scaled to the
# speed at which it takes CAL_NOMINAL_S.
CAL_NOMINAL_S = 0.006


def _calibration_work() -> int:
    items = [(f"n{i % 97}", f"m{(i * 7) % 89}", i) for i in range(5000)]
    seen = set(items)
    groups: dict[str, list] = {}
    for a, b, c in items:
        groups.setdefault(a, []).append((b, c))
    return len(seen) + len(groups) + len(sorted(seen))


def calibrate() -> float:
    """Fastest of three timings of the calibration work, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - start)
    return best
