"""Command-line interface.

Subcommands mirror the pipeline stages: simplify, infer, rewrite, eval,
emit, gen, check, plus pipeline for a rewrite-and-emit walkthrough. Every
command accepts --json for machine-readable output. Exit codes: 0 success,
2 bad input, 3 consistency violations from check, 4 warnings under
--strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .ast import desugar, to_text, unroll_powers
from .emit_cypher import UnsupportedReport, emit_cypher
from .emit_sql import DIALECTS, emit_sql
from .evaluator import eval_ucqt, gen_db
from .inference import DEFAULT_PATH_LIMIT, DerivationRow, InferenceLog, derivation_rows, infer
from .inference import derive  # noqa: F401  the benchmark tracer (perfbench/tracer.py) wraps it
from .parser import parse_path_expr, parse_query
from .query import UcqtQuery, query_to_text
from .rewriter import DEFAULT_DISJUNCT_LIMIT, RewriteOutcome, rewrite
from .schema import FormatError, GraphSchema, check_consistency, load_db, load_schema, save_db
from .simplify import simplify


def _color_enabled() -> bool:
    return sys.stderr.isatty() and not os.environ.get("PATHFORGE_NO_COLOR")


def _warn(message: str) -> None:
    text = f"warning: {message}"
    if _color_enabled():
        text = f"\x1b[33m{text}\x1b[0m"
    print(text, file=sys.stderr)


def _read_query(path: str) -> UcqtQuery:
    return parse_query(Path(path).read_text().strip())


def _load_db_arg(spec: str):
    parts = spec.split(",")
    if len(parts) != 2:
        raise FormatError("--db expects two comma-separated paths: nodes.csv,edges.csv")
    return load_db(Path(parts[0]), Path(parts[1]))


def _finish(args, warnings: list[str]) -> int:
    # once each, in first-occurrence order: inference repeats a cap's warning
    for message in dict.fromkeys(warnings):
        _warn(message)
    if warnings and args.strict:
        return 4
    return 0


def _cmd_simplify(args) -> int:
    expr = simplify(desugar(parse_path_expr(args.expr)))
    if args.json:
        print(json.dumps({"input": args.expr, "normal_form": to_text(expr)}))
    else:
        print(to_text(expr))
    return 0


def _triple_json(triple: tuple[str, str, str]) -> dict:
    src, expr, trg = triple
    return {"src": src, "expr": expr, "trg": trg}


def _cmd_infer(args) -> int:
    schema = load_schema(Path(args.schema))
    # the form `rewrite` infers: fixed powers unrolled, ranges kept whole
    expr = simplify(unroll_powers(parse_path_expr(args.expr)))
    log = InferenceLog()
    triples = sorted(triple.sort_key() for triple in infer(expr, schema, args.path_limit, log))
    if args.json:
        print(json.dumps({"expr": to_text(expr), "triples": [_triple_json(t) for t in triples]}))
    else:
        for src, text, trg in triples:
            print(f"{src}  --[ {text} ]-->  {trg}")
    return _finish(args, log.warnings)


def _explain_json(rows: list[DerivationRow]) -> list[dict]:
    return [
        {"term": row.term, "rule": row.rule, "triples": [_triple_json(t) for t in row.triples]}
        for row in rows
    ]


def _reverted_json(reverted: dict[tuple[int, int], bool]) -> dict[str, bool]:
    return {f"{d}.{a}": flag for (d, a), flag in sorted(reverted.items())}


def _derivation_table(rows: list[DerivationRow]) -> str:
    cells = [
        (row.term, "; ".join("(%s, %s, %s)" % triple for triple in row.triples), row.rule)
        for row in rows
    ]
    headers = ("TERM", "TRIPLES", "RULE")
    widths = [
        max(len(headers[i]), max((len(c[i]) for c in cells), default=0)) for i in range(3)
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for cell in cells:
        lines.append("  ".join(cell[i].ljust(widths[i]) for i in range(3)).rstrip())
    return "\n".join(lines)


def _rewrite(args) -> tuple[GraphSchema, UcqtQuery, RewriteOutcome]:
    schema = load_schema(Path(args.schema))
    query = _read_query(args.query)
    outcome = rewrite(query, schema, disjunct_limit=args.disjunct_limit, path_limit=args.path_limit)
    return schema, query, outcome


def _outcome_json(outcome: RewriteOutcome, explain: list[DerivationRow] | None) -> dict:
    doc = {
        "enriched": query_to_text(outcome.enriched),
        "reverted": _reverted_json(outcome.reverted),
        "warnings": list(outcome.warnings),
    }
    if explain is not None:
        doc["explain"] = _explain_json(explain)
    return doc


def _cmd_rewrite(args) -> int:
    _, _, outcome = _rewrite(args)
    explain = derivation_rows(outcome.logs) if args.explain else None
    if args.json:
        print(json.dumps(_outcome_json(outcome, explain)))
    else:
        if explain is not None:
            print(_derivation_table(explain))
            print()
        print(query_to_text(outcome.enriched))
    return _finish(args, list(outcome.warnings))


def _cmd_eval(args) -> int:
    db = _load_db_arg(args.db)
    query = _read_query(args.query)
    rows = sorted(eval_ucqt(query, db))
    if args.json:
        print(json.dumps({"rows": [list(row) for row in rows]}))
    else:
        for row in rows:
            print("\t".join(row))
    return 0


def _emit_target(
    target: str, query: UcqtQuery, schema: GraphSchema, as_view: bool
) -> str | UnsupportedReport:
    """Emit a query for a ``sql:DIALECT`` or ``cypher`` target."""
    if target == "cypher":
        return emit_cypher(query, schema)
    return emit_sql(query, schema, dialect=target.removeprefix("sql:"), as_view=as_view)


def _cmd_emit(args) -> int:
    schema = load_schema(Path(args.schema))
    query = _read_query(args.query)
    result = _emit_target(args.target, query, schema, args.as_view)
    if isinstance(result, UnsupportedReport):
        if args.json:
            print(json.dumps({"target": args.target, "unsupported": result._asdict()}))
        return _finish(args, [str(result)])
    if args.json:
        print(json.dumps({"target": args.target, "text": result}))
    else:
        print(result, end="")
    return 0


def _cmd_gen(args) -> int:
    schema = load_schema(Path(args.schema))
    db = gen_db(schema, seed=args.seed, nodes_per_label=args.nodes, edge_prob=args.prob)
    nodes_path, edges_path = save_db(db, args.out)
    if args.json:
        print(
            json.dumps(
                {
                    "nodes": len(db.nodes),
                    "edges": len(db.edges),
                    "nodes_csv": str(nodes_path),
                    "edges_csv": str(edges_path),
                }
            )
        )
    else:
        print(f"wrote {nodes_path} ({len(db.nodes)} nodes) and {edges_path} ({len(db.edges)} edges)")
    return 0


def _cmd_check(args) -> int:
    schema = load_schema(Path(args.schema))
    db = _load_db_arg(args.db)
    report = check_consistency(db, schema)
    if args.json:
        violations = [v._asdict() for v in report.violations]
        print(json.dumps({"consistent": report.consistent, "violations": violations}))
    elif report.consistent:
        print("consistent")
    else:
        for violation in report.violations:
            print(f"{violation.kind}: {violation.element}: {violation.detail}")
    return 0 if report.consistent else 3


def _cmd_pipeline(args) -> int:
    schema, query, outcome = _rewrite(args)
    explain = derivation_rows(outcome.logs)
    emitted: dict[str, object] = {}
    for target in args.target or ["sql:postgres"]:
        result = _emit_target(target, outcome.enriched, schema, args.as_view)
        if isinstance(result, UnsupportedReport):
            result = result._asdict()
        emitted[target] = result
    if args.json:
        doc = {"baseline": query_to_text(query), **_outcome_json(outcome, explain)}
        print(json.dumps({**doc, "emitted": emitted}))
    else:
        print("== derivation ==")
        print(_derivation_table(explain))
        print()
        print("== baseline ==")
        print(query_to_text(query))
        print()
        print("== enriched ==")
        print(query_to_text(outcome.enriched))
        for target, text in emitted.items():
            print()
            print(f"== {target} ==")
            if isinstance(text, str):
                print(text, end="")
            else:
                print(f"not expressible: {text['construct']} in {text['detail']}")
    return _finish(args, list(outcome.warnings))


DISJUNCT_LIMIT_HELP = (
    "max disjuncts one conjunct's enrichment may produce; past it, the atom with the "
    f"most alternatives reverts until the product fits (default {DEFAULT_DISJUNCT_LIMIT})"
)


def build_parser() -> argparse.ArgumentParser:
    targets = [f"sql:{d}" for d in DIALECTS] + ["cypher"]
    parser = argparse.ArgumentParser(
        prog="pathforge",
        description="Schema-aware rewriting, evaluation and emission of graph path queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--strict", action="store_true", help="warnings raise the exit code to 4")
        p.set_defaults(func=func)
        return p

    def add_caps(p):
        p.add_argument("--path-limit", type=int, default=DEFAULT_PATH_LIMIT)
        p.add_argument(
            "--disjunct-limit", type=int, default=DEFAULT_DISJUNCT_LIMIT, help=DISJUNCT_LIMIT_HELP
        )

    p = add("simplify", _cmd_simplify, "print the normal form of a path expression")
    p.add_argument("expr")

    p = add("infer", _cmd_infer, "print the label triples compatible with an expression")
    p.add_argument("--schema", required=True)
    p.add_argument("--path-limit", type=int, default=DEFAULT_PATH_LIMIT)
    p.add_argument("expr")

    p = add("rewrite", _cmd_rewrite, "schema-enrich a query")
    p.add_argument("--schema", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--explain", action="store_true", help="print the triple derivation table")
    add_caps(p)

    p = add("eval", _cmd_eval, "evaluate a query on a database")
    p.add_argument("--db", required=True, metavar="NODES,EDGES")
    p.add_argument("--query", required=True)

    p = add("emit", _cmd_emit, "translate a query to SQL or Cypher")
    p.add_argument("--target", required=True, choices=targets)
    p.add_argument("--schema", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--as-view", action="store_true", help="wrap SQL in the dialect's view statement")

    p = add("gen", _cmd_gen, "generate a random schema-conforming database")
    p.add_argument("--schema", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True, help="instances per node label")
    p.add_argument("--prob", type=float, required=True, help="edge inclusion probability")
    p.add_argument("--out", required=True)

    p = add("check", _cmd_check, "check database-schema consistency")
    p.add_argument("--schema", required=True)
    p.add_argument("--db", required=True, metavar="NODES,EDGES")

    p = add("pipeline", _cmd_pipeline, "rewrite, explain and emit in one pass")
    p.add_argument("--schema", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--target", action="append", choices=targets, help="repeatable")
    p.add_argument("--as-view", action="store_true")
    add_caps(p)

    return parser


# `run` builds its parser once per process. Reuse is safe: parsing changes
# no parser state, an `append` option starts each parse from a copy of its
# default, and errors go to the `sys.stderr` of the moment
_parser = functools.cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code. The
    parser is built on the first call, and later calls reuse it."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
