"""In-memory span tracing around pathforge's public functions.

The tracer replaces functions at the module attributes their callers look
up (``pathforge.cli.rewrite``, ``pathforge.rewriter.infer`` and so on) with
wrappers that record one span per call: name, start, end, parent span,
query id, plus a few counts taken at the boundary. Nothing under ``src/``
changes; ``uninstall`` puts the original functions back.

A layer's self time is its span's duration minus the time its child spans
cover. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import re
import time
from contextlib import contextmanager

# (module, attribute, span name); the attribute is the name the caller
# resolves at call time, so a call through it lands in the wrapper
TARGETS = (
    ("pathforge.cli", "run", "cli.run"),
    ("pathforge.cli", "load_schema", "schema.load_schema"),
    ("pathforge.cli", "parse_query", "parser.parse"),
    ("pathforge.cli", "parse_path_expr", "parser.parse"),
    ("pathforge.cli", "desugar", "ast.desugar"),
    ("pathforge.rewriter", "desugar", "ast.desugar"),
    ("pathforge.cli", "simplify", "simplify"),
    ("pathforge.rewriter", "simplify", "simplify"),
    ("pathforge.cli", "rewrite", "rewriter.rewrite"),
    ("pathforge.rewriter", "infer", "inference.infer"),
    ("pathforge.inference", "infer", "inference.infer"),
    ("pathforge.cli", "derive", "inference.derive"),
    # called only when closure enumeration runs past path_limit
    ("pathforge.inference", "_reachable_pairs", "inference.path_limit_hit"),
    ("pathforge.cli", "emit_sql", "emit_sql"),
    ("pathforge.cli", "emit_cypher", "emit_cypher"),
    ("pathforge.evaluator", "eval_ucqt", "evaluator.eval_ucqt"),
    ("pathforge.evaluator", "eval_path", "evaluator.eval_path"),
    ("pathforge.evaluator", "gen_db", "evaluator.gen_db"),
    # the benchmark's own loading of each database into SQLite
    ("workloads", "load_sqlite", "sqlite.load"),
)

_CTE_RE = re.compile(r"\w+\(Sr, Tr\) AS \(")
_JOIN_RE = re.compile(r"\bJOIN\b")


def tree_size(expr) -> int:
    """Node count of an expression tree; shared subtrees count each time."""
    from pathforge.ast import children

    sizes: dict[int, int] = {}
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in sizes:
            continue
        kids = children(node)
        if expanded or not kids:
            sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return sizes[id(expr)]


def _counts(name: str, result) -> dict:
    if name == "inference.infer":
        return {"triples": len(result)}
    if name in ("ast.desugar", "simplify"):
        return {"nodes": tree_size(result)}
    if name == "rewriter.rewrite":
        return {
            "atoms": len(result.reverted),
            "reverted": sum(1 for flag in result.reverted.values() if flag),
            "disjuncts": len(result.enriched.disjuncts),
        }
    if name == "emit_sql":
        return {
            "bytes": len(result.encode()),
            "ctes": len(_CTE_RE.findall(result)),
            "joins": len(_JOIN_RE.findall(result)),
        }
    if name == "emit_cypher":
        return {"unsupported": int(not isinstance(result, str))}
    if name == "evaluator.eval_ucqt":
        return {"rows": len(result)}
    return {}


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "counts", "error")

    def __init__(self, name: str, parent: int, query: str | None):
        self.name = name
        self.parent = parent
        self.query = query
        # a span cut off before it closes keeps a duration of zero
        self.start = self.end = time.perf_counter()
        self.counts: dict = {}
        self.error: str | None = None

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "query": self.query,
        }
        if self.counts:
            doc["counts"] = self.counts
        if self.error:
            doc["error"] = self.error
        return doc


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def start_query(self, query: str) -> None:
        """Spans from here on belong to ``query`` and have no open parent."""
        self.query = query
        self._stack.clear()

    @contextmanager
    def span(self, name: str, **counts):
        """Record a span around a block run by the benchmark itself."""
        with self._record(name) as record:
            record.counts.update(counts)
            yield record

    @contextmanager
    def _record(self, name: str):
        # A budget's timer signal can raise BudgetMiss between any two
        # bytecodes, so the stack is cut back to its depth on entry whatever
        # was pushed, rather than popped once per push.
        depth = len(self._stack)
        record = None
        try:
            record = Span(name, self._stack[-1] if self._stack else -1, self.query)
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            yield record
        except BaseException as exc:
            if record is not None:
                record.error = type(exc).__name__
            raise
        finally:
            if record is not None:
                record.end = time.perf_counter()
            del self._stack[depth:]

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self._record(name) as record:
                result = fn(*args, **kwargs)
            record.counts = _counts(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original))

    def annotate_last(self, name: str, **counts) -> None:
        """Add counts to the most recent span of that name."""
        for record in reversed(self.spans):
            if record.name == name:
                record.counts.update(counts)
                return

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures from the spans of a traced phase, per round.

    Times and counts are totals divided by the number of rounds, so that run
    length cancels out; shares and ratios are taken over the whole phase.
    """
    spans = tracer.spans
    own = tracer.self_times()
    names = [s.name for s in spans]

    def total(name, where=lambda s: True):
        return sum(s.end - s.start for s in spans if s.name == name and where(s))

    def count(name, where=lambda s: True):
        return sum(1 for s in spans if s.name == name and where(s))

    def summed(name, key, where=lambda s: True):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name and where(s))

    def own_total(name):
        return sum(own[i] for i, n in enumerate(names) if n == name)

    def under(parent_name):
        return lambda s: s.parent >= 0 and names[s.parent] == parent_name

    def share(part, whole):
        return part / whole if whole else 0.0

    in_rewrite = under("rewriter.rewrite")
    infer_s = total("inference.infer", in_rewrite)
    derive_s = total("inference.derive")
    atoms = summed("rewriter.rewrite", "atoms")
    statements = [s for s in spans if s.name == "sqlite.statement"]
    cypher_calls = count("emit_cypher")
    eval_ucqt_s = total("evaluator.eval_ucqt")
    path_in_ucqt = total("evaluator.eval_path", under("evaluator.eval_ucqt"))
    u = max(rounds, 1)
    return {
        "parser.busy_s": total("parser.parse") / u,
        "parser.calls": count("parser.parse") / u,
        "ast.desugar_s": total("ast.desugar") / u,
        "ast.nodes_out": summed("ast.desugar", "nodes") / u,
        "simplify.busy_s": total("simplify") / u,
        "simplify.nodes_out": summed("simplify", "nodes") / u,
        "inference.infer_s": infer_s / u,
        "inference.infer_calls": count("inference.infer", in_rewrite) / u,
        "inference.triples_out": summed("inference.infer", "triples", in_rewrite) / u,
        "inference.path_limit_hits": count("inference.path_limit_hit") / u,
        "inference.overflows": count(
            "inference.infer", lambda s: s.error == "InferenceOverflow"
        )
        / u,
        "inference.derive_s": derive_s / u,
        "inference.derive_over_rewrite": share(derive_s, infer_s),
        "rewriter.rewrite_s": total("rewriter.rewrite") / u,
        "rewriter.self_s": own_total("rewriter.rewrite") / u,
        "rewriter.atoms": atoms / u,
        "rewriter.reverted_share": share(summed("rewriter.rewrite", "reverted"), atoms),
        "rewriter.disjuncts_out": summed("rewriter.rewrite", "disjuncts") / u,
        "emit_sql.busy_s": total("emit_sql") / u,
        "emit_sql.bytes": summed("emit_sql", "bytes") / u,
        "emit_sql.ctes": summed("emit_sql", "ctes") / u,
        "emit_sql.joins": summed("emit_sql", "joins") / u,
        "emit_cypher.busy_s": total("emit_cypher") / u,
        "emit_cypher.unsupported_share": share(summed("emit_cypher", "unsupported"), cypher_calls),
        "evaluator.path_s": total("evaluator.eval_path") / u,
        "evaluator.join_s": (eval_ucqt_s - path_in_ucqt) / u,
        "evaluator.pairs_baseline": summed("evaluator.eval_ucqt", "pairs_baseline") / u,
        "evaluator.pairs_enriched": summed("evaluator.eval_ucqt", "pairs_enriched") / u,
        "evaluator.rows": summed("evaluator.eval_ucqt", "rows") / u,
        "schema.load_schema_s": total("schema.load_schema") / u,
        "cli.run_s": total("cli.run") / u,
        "cli.self_s": own_total("cli.run") / u,
        "sqlite.statement_s": sum(s.end - s.start for s in statements) / u,
        "sqlite.rows": sum(s.counts.get("rows", 0) for s in statements) / u,
        "sqlite.plan_auto_indexes": sum(s.counts.get("auto_indexes", 0) for s in statements) / u,
        "sqlite.plan_scans": sum(s.counts.get("scans", 0) for s in statements) / u,
    }
