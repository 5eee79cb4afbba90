"""The benchmark's workloads: inputs made from a seed, and one round of work each.

yago-exec         two README-style queries on a generated YAGO database; a
                  round runs both, and the evaluator and SQLite do nearly
                  all the work.
infer-blowup      two fixed rewrites whose inference explodes; a round runs
                  both, and inference and the rewriter do nearly all the work.
corpus-roundtrip  fresh random queries on random schemas; a round runs the
                  next 25 of them, so per-call cost in every layer shows.

Each round compiles through the in-process ``pathforge pipeline --json``,
then runs baseline and enriched query in the reference evaluator and in
SQLite, and checks the four row sets against each other outside the timed
regions.
"""

from __future__ import annotations

import contextlib
import json
import random
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

import pathforge.evaluator
import pathforge.schema
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
    to_text,
)
from pathforge.evaluator import EvalStats
from pathforge.parser import parse_query

from harness import (
    DEADLINE_S,
    HEADROOM_MB,
    Budget,
    BudgetMiss,
    baseline_sql,
    compile_query,
    evaluate,
    load_sqlite,
    plan_counts,
    query_geomean,
    query_plan,
    round_median,
    run_sql,
    statement,
)

YAGO_SCHEMA = {
    "nodes": [
        {"label": "PERSON", "properties": {"name": "String", "age": "Int"}},
        {"label": "PROPERTY", "properties": {"address": "String"}},
        {"label": "CITY", "properties": {"name": "String"}},
        {"label": "REGION", "properties": {"name": "String"}},
        {"label": "COUNTRY", "properties": {"name": "String"}},
    ],
    "edges": [
        {"label": "isMarriedTo", "src": "PERSON", "trg": "PERSON"},
        {"label": "livesIn", "src": "PERSON", "trg": "CITY"},
        {"label": "owns", "src": "PERSON", "trg": "PROPERTY"},
        {"label": "isLocatedIn", "src": "PROPERTY", "trg": "CITY"},
        {"label": "isLocatedIn", "src": "CITY", "trg": "REGION"},
        {"label": "isLocatedIn", "src": "REGION", "trg": "COUNTRY"},
        {"label": "dealsWith", "src": "COUNTRY", "trg": "COUNTRY"},
    ],
}

# the README chain keeps its closure; the shorter query unrolls into
# fixed-length paths
README_QUERY = "x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)"
YAGO_QUERIES = (("chain", README_QUERY), ("unrolled", "x,y <- (x, livesIn/isLocatedIn+, y)"))


def _e0_schema(count: int, arcs: str) -> dict:
    return {
        "nodes": [{"label": f"N{i}"} for i in range(count)],
        "edges": [{"src": f"N{a}", "label": "e0", "trg": f"N{b}"} for a, b in arcs.split()],
    }


# Case A explodes triples through composition joins; case B runs closure
# enumeration into path_limit over deep desugared trees. Both are shrunk
# from the corpus originals (A: outer {1,3} inner {1,3}; B: e0{1,3}{2,4}+)
# so that a round fits the run length; README.md records the sizes.
BLOWUP_A_SCHEMA = _e0_schema(3, "00 11 12 20 21 22")
BLOWUP_B_SCHEMA = _e0_schema(4, "00 11 12 13 21 22 32")
BLOWUP_CASES = (
    ("A", BLOWUP_A_SCHEMA, "x,y <- (x, (e0/([-e0]e0){1,2}){1,3}, y)"),
    ("B", BLOWUP_B_SCHEMA, "x,y <- (x, e0{1,2}{2,3}+[([e0]-e0)[e0&e0]&e0{2,4}/[-e0]e0], y)"),
)
# uninterrupted, this compile runs for about 20 s; the deadline check uses it
RUNAWAY_QUERY = "x,y <- (x, e0{1,3}{2,4}+, y)"


# yago-exec: 40 nodes per label, not the roadmap's 60, where one round
# takes about 16 s (README.md)
YAGO_NODES = 40
YAGO_EDGE_PROB = 0.3
# infer-blowup and corpus-roundtrip run on small gen_db instances
SMALL_DB_NODES = 3
SMALL_DB_EDGE_PROB = 0.4
# infer-blowup times each case on this many fixed databases (gen_db seeds 0,
# 1, ...), so that its timings compare across seeds
BLOWUP_TIMED_DBS = 4
# corpus-roundtrip: a round runs the next CORPUS_PER_ROUND queries; each
# group of CORPUS_PER_SCHEMA queries shares one random schema and database,
# which keeps the number of open SQLite connections small; the first
# expression of a query has depth CORPUS_DEPTH (the second has depth 2)
CORPUS_PER_ROUND = 25
CORPUS_PER_SCHEMA = 8
CORPUS_DEPTH = 3

KEYS = ("compile_s", "eval_baseline_s", "eval_enriched_s", "sqlite_baseline_s", "sqlite_enriched_s")


@dataclass
class Instance:
    """One database a case runs on, with its SQLite load and baseline SQL."""

    name: str
    db: object
    conn: sqlite3.Connection
    base_sql: str
    timed: bool = True
    # keep each statement's plan and times for the run's report
    record: bool = True
    statements: dict = field(default_factory=dict)


@dataclass
class Case:
    """One query on one schema, compiled once per round."""

    name: str
    schema: object
    schema_path: Path
    path: Path
    text: str
    query: object
    instances: list[Instance] = field(default_factory=list)

    @property
    def query_path(self) -> Path:
        """The query's file, written on first use. Set-up writes no query
        files: thousands of small writes made corpus set-up time depend on
        the file system more than on pathforge."""
        if not self.path.exists():
            self.path.write_text(self.text)
        return self.path

    def add_instance(self, name: str, db, conn, timed: bool = True, record: bool = True) -> None:
        base_sql = baseline_sql(self.query, self.schema)
        self.instances.append(Instance(name, db, conn, base_sql, timed, record))


def _load_schema(doc: dict, path: Path):
    path.write_text(json.dumps(doc))
    return pathforge.schema.load_schema(path)


def _case(name: str, schema, schema_path: Path, text: str, workdir: Path) -> Case:
    return Case(name, schema, schema_path, workdir / f"{name}.ucqt", text, parse_query(text))


def _gen_db(schema, seed, nodes, prob):
    db = pathforge.evaluator.gen_db(schema, seed=seed, nodes_per_label=nodes, edge_prob=prob)
    db.node_label, db.edge_pairs  # built once per database, as any caller would
    return db


def _sqlite(instance: Instance, variant: str, sql: str, budget, tracer):
    entry = instance.statements.get((variant, sql))
    if entry is None and (instance.record or tracer):
        entry = {"plan": query_plan(instance.conn, sql), "seconds": []}
        if instance.record:
            instance.statements[(variant, sql)] = entry
    span = (
        tracer.span("sqlite.statement", variant=variant, **plan_counts(entry["plan"]))
        if tracer
        else contextlib.nullcontext()
    )
    with span as record:
        rows, seconds = run_sql(instance.conn, sql, budget)
        if record is not None:
            record.counts["rows"] = len(rows)
    if entry is not None:
        entry["seconds"].append(seconds)
    return rows, seconds


def execute(case: Case, instance: Instance, enriched, sql: str, outcome, tracer, budget) -> dict:
    """Baseline and enriched query in the evaluator and in SQLite.

    Returns the timings that succeeded. The row sets are compared after all
    four have run, outside the timed regions; every mismatch is a failure.
    """
    where = f"{case.name}/{instance.name}"
    timings: dict[str, float] = {}
    results: list[tuple[str, frozenset]] = []
    for variant, query, text in (
        ("baseline", case.query, instance.base_sql),
        ("enriched", enriched, sql),
    ):
        outcome.attempt()
        stats = EvalStats() if tracer else None
        try:
            rows, seconds = evaluate(query, instance.db, budget, stats)
        except BudgetMiss as miss:
            outcome.miss(f"{where}: evaluator {variant} {miss}")
        else:
            timings[f"eval_{variant}_s"] = seconds
            results.append((f"evaluator {variant}", rows))
            if tracer:
                tracer.annotate_last("evaluator.eval_ucqt", **{f"pairs_{variant}": stats.pairs})
        outcome.attempt()
        try:
            rows, seconds = _sqlite(instance, variant, text, budget, tracer)
        except BudgetMiss as miss:
            outcome.miss(f"{where}: SQLite {variant} {miss}")
        except sqlite3.Error as exc:
            outcome.fail(f"{where}: SQLite {variant}: {exc}")
        else:
            timings[f"sqlite_{variant}_s"] = seconds
            results.append((f"SQLite {variant}", rows))
    if results:
        reference_name, reference = results[0]
        for name, rows in results[1:]:
            if rows != reference:
                outcome.fail(f"{where}: {name} rows differ from {reference_name}")
    return timings


def run_cases(cases: list[Case], outcome, tracer, label: str, budget=None) -> list[dict]:
    """Compile each case and run it on its instances; one timing dict per case.

    A case's timing is the total over its timed instances, and is left out
    if any operation behind it failed or was cut at its budget; a compile
    past its budget counts as taking the whole deadline.
    """
    out = []
    for case in cases:
        if tracer:
            tracer.start_query(f"{case.name}#{label}")
        outcome.attempt()
        try:
            doc, seconds = compile_query(case.schema_path, case.query_path, budget)
        except BudgetMiss as miss:
            outcome.miss(f"{case.name}: compile {miss}")
            out.append({"compile_s": budget.seconds})
            continue
        except Exception as exc:  # a crash of the program under test is one failure
            outcome.fail(f"{case.name}: compile raised {type(exc).__name__}: {exc}")
            out.append({})
            continue
        totals = dict.fromkeys(KEYS, 0.0)
        totals["compile_s"] = seconds
        enriched = parse_query(doc["enriched"])
        sql = statement(doc["emitted"]["sql:sqlite"])
        for instance in case.instances:
            timings = execute(case, instance, enriched, sql, outcome, tracer, budget)
            if instance.timed:
                for key in KEYS[1:]:
                    if key in timings and key in totals:
                        totals[key] += timings[key]
                    else:
                        totals.pop(key, None)
        out.append(totals)
    return out


@dataclass
class State:
    cases: list[Case]
    readme: Case
    budget: Budget | None = None

    def close(self) -> None:
        for conn in {id(i.conn): i.conn for c in self.cases for i in c.instances}.values():
            conn.close()


class _FixedQueries:
    """A workload whose every round runs the same cases."""

    aggregate = staticmethod(round_median)

    def run_round(self, state: State, index: int, outcome, tracer=None) -> list[dict]:
        return run_cases(state.cases, outcome, tracer, f"round{index}")


class YagoExec(_FixedQueries):
    name = "yago-exec"

    def __init__(self, nodes: int = YAGO_NODES):
        self.nodes = nodes

    def setup(self, seed: int, workdir: Path) -> State:
        schema_path = workdir / "yago_schema.json"
        schema = _load_schema(YAGO_SCHEMA, schema_path)
        db = _gen_db(schema, seed, self.nodes, YAGO_EDGE_PROB)
        conn = load_sqlite(schema, db)
        cases = []
        for name, text in YAGO_QUERIES:
            case = _case(name, schema, schema_path, text, workdir)
            case.add_instance(f"yago{self.nodes}", db, conn)
            cases.append(case)
        return State(cases=cases, readme=cases[0])


def _readme_case(workdir: Path) -> Case:
    """The README query on the YAGO schema, for the cold-process measurement."""
    schema_path = workdir / "yago_schema.json"
    return _case("readme", _load_schema(YAGO_SCHEMA, schema_path), schema_path, README_QUERY, workdir)


class InferBlowup(_FixedQueries):
    name = "infer-blowup"

    def __init__(self, cases=BLOWUP_CASES, timed_dbs: int = BLOWUP_TIMED_DBS):
        self.cases = cases
        self.timed_dbs = timed_dbs

    def setup(self, seed: int, workdir: Path) -> State:
        cases = []
        for name, doc, text in self.cases:
            schema_path = workdir / f"{name}_schema.json"
            schema = _load_schema(doc, schema_path)
            case = _case(name, schema, schema_path, text, workdir)
            # timings come from fixed databases, so that they compare across
            # seeds; the seeded database widens the equivalence check
            for db_seed, timed in [(k, True) for k in range(self.timed_dbs)] + [(seed, False)]:
                db = _gen_db(schema, db_seed, SMALL_DB_NODES, SMALL_DB_EDGE_PROB)
                db_name = f"db{db_seed}" if timed else f"seed{db_seed}"
                case.add_instance(db_name, db, load_sqlite(schema, db), timed)
            cases.append(case)
        return State(cases=cases, readme=_readme_case(workdir))


# The corpus generator and its four query templates follow the project's
# randomized suites and SQLite round-trip script; they are copied here so
# that the benchmark's inputs stay fixed while the tests evolve.
def random_expr(rng: random.Random, alphabet: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.3:
        name = rng.choice(alphabet)
        return Reverse(name) if rng.random() < 0.2 else Label(name)
    kind = rng.choice(["concat", "concat", "union", "conj", "branchr", "branchl", "tc", "repeat"])

    def sub():
        return random_expr(rng, alphabet, depth - 1)

    if kind == "concat":
        return Concat(sub(), sub())
    if kind == "union":
        return Union(sub(), sub())
    if kind == "conj":
        return Conj(sub(), sub())
    if kind == "branchr":
        return BranchR(sub(), sub())
    if kind == "branchl":
        return BranchL(sub(), sub())
    if kind == "tc":
        return TransClos(sub())
    lo = rng.randint(1, 2)
    return Repeat(sub(), lo, lo + rng.randint(0, 2))


def random_schema_doc(rng: random.Random, max_labels: int = 6, max_edges: int = 10) -> dict:
    node_labels = [f"N{i}" for i in range(rng.randint(1, max_labels))]
    alphabet = [f"e{i}" for i in range(rng.randint(1, 4))]
    signatures = set()
    for _ in range(rng.randint(1, max_edges)):
        signatures.add((rng.choice(node_labels), rng.choice(alphabet), rng.choice(node_labels)))
    return {
        "nodes": [{"label": label} for label in node_labels],
        "edges": [{"src": s, "label": l, "trg": t} for s, l, t in sorted(signatures)],
    }


def random_query(rng: random.Random, schema, depth: int) -> str:
    alphabet = sorted(schema.edge_labels)
    e1 = to_text(random_expr(rng, alphabet, depth))
    e2 = to_text(random_expr(rng, alphabet, 2))
    label = rng.choice(sorted(schema.node_labels))
    return rng.choice(
        [
            f"x,y <- (x, {e1}, y)",
            f"x,y <- (x, {e1}, y) && (y, {e2}, z) && z:{{{label}}}",
            f"x,y <- (x, {e1}, y) || (x, {e2}, y)",
            f"x,y <- (x, {e1}, x) && (x, {e2}, y)",
        ]
    )


class CorpusRoundtrip:
    name = "corpus-roundtrip"
    # the queries differ from round to round, so a round total would mostly
    # measure which queries it drew
    aggregate = staticmethod(query_geomean)

    def __init__(self, queries: int):
        self.queries = queries

    def setup(self, seed: int, workdir: Path) -> State:
        rng = random.Random(seed)
        cases = []
        group = 0
        while len(cases) < self.queries:
            schema_path = workdir / f"s{group}.json"
            schema = _load_schema(random_schema_doc(rng), schema_path)
            db = _gen_db(schema, seed * 100_003 + group, SMALL_DB_NODES, SMALL_DB_EDGE_PROB)
            conn = load_sqlite(schema, db)
            for _ in range(min(CORPUS_PER_SCHEMA, self.queries - len(cases))):
                case = _case(f"q{len(cases)}", schema, schema_path, random_query(rng, schema, CORPUS_DEPTH), workdir)
                case.add_instance(f"s{group}", db, conn, record=False)
                cases.append(case)
            group += 1
        budget = Budget(DEADLINE_S, HEADROOM_MB)
        return State(cases=cases, readme=_readme_case(workdir), budget=budget)

    def run_round(self, state: State, index: int, outcome, tracer=None) -> list[dict]:
        count = len(state.cases)
        batch = [state.cases[(index * CORPUS_PER_ROUND + k) % count] for k in range(CORPUS_PER_ROUND)]
        return run_cases(batch, outcome, tracer, f"round{index}", state.budget)
