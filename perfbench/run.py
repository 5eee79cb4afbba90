#!/usr/bin/env python3
"""pathforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload yago-exec --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run sets the workload up at least three times and for
at least two seconds (``setup_s`` is the median), then drives it for
``--seconds`` in a closed loop: one client in one thread issues each call
after the previous one returns. Fresh ``pathforge`` processes for
``cli_cold_ms`` are spread over the loop. Every time is scaled by a
calibration timed next to each set-up, round and process (see harness.py),
reported in units ``cal_s`` and ``cal_ms`` (``setup_s`` keeps the unit
``s``); the raw seconds are printed too.

With ``--trace 1`` it runs rounds untraced for half of ``--seconds``, then
the same rounds traced, and reports the per-layer metrics, each per round,
plus the tracing overhead.

Every run checks each output against the reference evaluator and counts
failures against attempted operations; operations cut at their budget are
counted apart as budget misses. The last line of standard output is
one JSON object: {"correct": ..., "attempted": ..., "failed": ..., "metrics":
{...}}. Details (per-round timings, compile latencies, SQL with its EXPLAIN
QUERY PLAN and statement times, failures, spans) go to
perfbench/out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("yago-exec", "infer-blowup", "corpus-roundtrip")
HASH_SEED = "0"
# set-up repeats at least this often and for this long; setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# short set-ups share one calibration per this many seconds of set-up
SETUP_CAL_EVERY_S = 0.25
# corpus queries made per second of run length: more than the loop gets
# through at the seed commit; the loop wraps around if it runs out
CORPUS_RATE = 120


def make_workload(name: str, seconds: float):
    from workloads import CorpusRoundtrip, InferBlowup, YagoExec

    if name == "yago-exec":
        return YagoExec()
    if name == "infer-blowup":
        return InferBlowup()
    return CorpusRoundtrip(queries=int(CORPUS_RATE * seconds))


def measure(workload, state, outcome, seconds=None, rounds=None, tracer=None, between=()):
    """Run rounds for ``seconds``, or exactly ``rounds`` of them.

    Returns ``(results, scales, extra)``: each round's timings, each round's
    calibration scale, and ``(value, scale)`` for each callable of
    ``between``. Those run one at a time at evenly spaced points of the
    loop, so that they sample the whole run. A scale is CAL_NOMINAL_S over
    the mean of the calibrations just before and just after the item.

    Without ``rounds``, a warm-up round goes first: its outputs are checked
    but its timings are dropped, since it grows the heap to its working
    size.
    """
    from harness import CAL_NOMINAL_S, calibrate

    if rounds is None:
        workload.run_round(state, 0, outcome, tracer)
    results, scales, extra = [], [], []
    pending = list(between)
    slots = len(pending)
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds is not None and len(results) >= rounds:
            break
        if rounds is None and results and elapsed >= seconds and not pending:
            break
        if pending and (elapsed >= seconds or elapsed >= seconds * (slots - len(pending)) / slots):
            value = pending.pop(0)()
            after = calibrate()
            extra.append((value, 2 * CAL_NOMINAL_S / (before + after)))
        else:
            results.append(workload.run_round(state, len(results) + 1, outcome, tracer))
            after = calibrate()
            scales.append(2 * CAL_NOMINAL_S / (before + after))
        gc.collect()
        before = calibrate()
    return results, scales, extra


def busy(round_: list[dict]) -> float:
    """Seconds spent inside the timed operations of one round."""
    return sum(sum(case.values()) for case in round_)


def setup(workload, seed: int, workdir: Path, repeats: int = SETUP_REPEATS):
    """Set the workload up ``repeats`` times, and for at least SETUP_MIN_S.

    Returns the last state, every set-up's time and its calibration scale.
    The calibration is timed before and after each set-up, or each batch of
    set-ups that together take SETUP_CAL_EVERY_S.
    """
    from harness import CAL_NOMINAL_S, calibrate

    times: list[float] = []
    scales: list[float] = []
    before = calibrate()

    def scale_pending() -> None:
        nonlocal before
        after = calibrate()
        scales.extend([2 * CAL_NOMINAL_S / (before + after)] * (len(times) - len(scales)))
        before = after

    state = None
    while len(times) < repeats or (repeats > 1 and sum(times) < SETUP_MIN_S):
        if state is not None:
            state.close()
            state = None
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
        if sum(times[len(scales) :]) >= SETUP_CAL_EVERY_S:
            scale_pending()
    if len(scales) < len(times):
        scale_pending()
    return state, times, scales


def end_to_end(workload, seed, seconds, workdir, outcome, details) -> dict:
    from harness import COLD_PROCESSES, cold_cli, compile_query, tail
    from workloads import KEYS

    state, setup_times, setup_scales = setup(workload, seed, workdir)
    gc.collect()
    gc.freeze()
    readme = state.readme
    expected = compile_query(readme.schema_path, readme.query_path)[0]["enriched"]

    def cold() -> float:
        return cold_cli(readme.schema_path, readme.query_path, expected, outcome)

    results, scales, cold_runs = measure(
        workload, state, outcome, seconds=seconds, between=[cold] * COLD_PROCESSES
    )
    scaled = {key: workload.aggregate(list(zip(results, scales)), key) for key in KEYS}
    raw = {key: workload.aggregate([(r, 1.0) for r in results], key) for key in KEYS}
    metrics = {
        # calibrated like the other times; the unit reads "s" as the
        # benchmark's set-up metric must
        "setup_s": (statistics.median(t * k for t, k in zip(setup_times, setup_scales)), "s"),
        **{key: (scaled[key], "cal_s") for key in KEYS},
        "sqlite_speedup": (scaled["sqlite_baseline_s"] / scaled["sqlite_enriched_s"], "ratio"),
        "cli_cold_ms": (statistics.median(ms * scale for ms, scale in cold_runs), "cal_ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    latencies = [case["compile_s"] * 1000 for r in results for case in r if "compile_s" in case]
    value, percentile, beyond = tail(latencies)
    details.update(
        rounds=results,
        scales=scales,
        raw_seconds=raw,
        setup_times_s=setup_times,
        setup_scales=setup_scales,
        cli_cold_ms=[ms for ms, _ in cold_runs],
        compile_ms_p50=statistics.median(latencies),
        compile_ms_tail={
            "value": value,
            "percentile": percentile,
            "beyond": beyond,
            "samples": len(latencies),
        },
        compile_ms=latencies,
        statements=statement_report(state),
    )
    state.close()
    return metrics


def per_layer(workload, seed, seconds, workdir, outcome, details) -> dict:
    from harness import import_ms
    from tracer import Tracer, layer_metrics

    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        state, _, _ = setup(workload, seed, workdir, repeats=1)
    finally:
        setup_tracer.uninstall()
    gc.collect()
    gc.freeze()
    # the same rounds twice: untraced for the overhead baseline, then traced
    plain, plain_scales, _ = measure(workload, state, outcome, seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_scales, _ = measure(workload, state, outcome, rounds=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced))
    metrics["evaluator.gen_db_s"] = setup_tracer.total("evaluator.gen_db")
    metrics["sqlite.load_s"] = setup_tracer.total("sqlite.load")
    metrics["cli.import_ms"] = import_ms()
    metrics["budget.miss_share"] = outcome.misses / max(outcome.attempted, 1)
    metrics["trace.overhead_share"] = (
        sum(busy(r) * k for r, k in zip(traced, traced_scales))
        / sum(busy(r) * k for r, k in zip(plain, plain_scales))
        - 1
    )
    details.update(
        rounds=traced,
        untraced_rounds=plain,
        statements=statement_report(state),
        spans=[s.to_json() for s in tracer.spans],
    )
    state.close()
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_over_rewrite")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def statement_report(state) -> list[dict]:
    """Per query, database and variant: SQL, EXPLAIN QUERY PLAN and times."""
    return [
        {
            "query": case.name,
            "db": instance.name,
            "variant": variant,
            "sql": sql,
            "plan": entry["plan"],
            "seconds": entry["seconds"],
        }
        for case in state.cases
        for instance in case.instances
        for (variant, sql), entry in instance.statements.items()
    ]


def run_workload(workload, seed: int, seconds: float, trace: int):
    """One run: (metrics as {name: (value, unit)}, outcome, details)."""
    from harness import Outcome

    tag = f"{workload.name}-seed{seed}-trace{trace}"
    workdir = OUT / f"{tag}-inputs"
    details: dict = {"workload": workload.name, "seed": seed, "seconds": seconds}
    outcome = Outcome()
    try:
        run = per_layer if trace else end_to_end
        metrics = run(workload, seed, seconds, workdir, outcome, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        budget_misses=outcome.misses,
        failures=outcome.messages,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(details))
    return metrics, outcome, details


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing orders sets and dicts, and with them the evaluator's
        # join order: case B's enriched evaluation takes from 0.03 s to
        # 0.13 s depending on it; one fixed order keeps runs comparable
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    parser = argparse.ArgumentParser(description="Run one pathforge benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pathforge" / "__init__.py").is_file():
        print(f"error: no pathforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = make_workload(args.workload, args.seconds)
    metrics, outcome, details = run_workload(workload, args.seed, args.seconds, args.trace)

    print(f"{args.workload} seed {args.seed}: {len(details['rounds'])} rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    if "setup_times_s" in details:
        print(f"  {'setup_s raw':32s} {statistics.median(details['setup_times_s']):14.6f} s")
    for name, value in details.get("raw_seconds", {}).items():
        print(f"  {name + ' raw':32s} {value:14.6f} s")
    if "compile_ms_tail" in details:
        t = details["compile_ms_tail"]
        print(f"  compile_ms_p50 {details['compile_ms_p50']:.3f} ms of {t['samples']} compiles")
        print(
            f"  compile_ms_tail {t['value']:.3f} ms at p{t['percentile']:.2f}"
            f" ({t['beyond']} beyond)"
        )
    print(
        f"  failure_rate {outcome.failed / max(outcome.attempted, 1):.6f}"
        f" ({outcome.failed} of {outcome.attempted});"
        f" {outcome.misses} budget misses"
    )
    for message in outcome.messages:
        print(f"  failure or miss: {message}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
