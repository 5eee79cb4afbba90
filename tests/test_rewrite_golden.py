"""Byte-identity guards for `pathforge rewrite` and `pathforge pipeline`.

`tests/data/goldens/corpus_rewrite.jsonl` holds, one line per input, the
`rewrite --json` document (enriched query, reverted atoms, warnings) and
the exit code the CLI gave for:

- the two queries of the benchmark's yago-exec workload, on the YAGO schema;
- the two infer-blowup cases (`blowup_cases.py`);
- 200 random queries in four shapes, eight to a random schema, drawn from
  `random.Random(CORPUS_SEED)` by `corpus_inputs` below.

The file was last written by running this module as a script
(`PYTHONPATH=src python tests/test_rewrite_golden.py`) once inference kept
a range e{m,n}, m < n, one node (TRepeat) instead of reading the union of
its powers, so it pins that code's output. The lines that changed then are
those of inputs with a range: where the range's body has a short cycle the
atom keeps the range whole instead of one disjunct per power, and the
infer-blowup case B lost its path-limit warning. The test runs the
CLI in process on the same inputs and compares the printed text. A change
that alters the output on purpose rewrites the file the same way and says
in CHANGES.md which documents changed and why.

`tests/data/goldens/output_digests.json` holds the SHA-256 of the stdout
of `pipeline --json --target sql:sqlite --target cypher` and of
`rewrite --explain` on the two yago-exec queries and the two infer-blowup
cases. Those outputs carry the merged triples of every atom, which the
documents above do not; case A's derivation table was 1.4 MB while
inference unrolled its ranges, so only digests are kept. The same script
run writes them.

It also holds the SHA-256 of that `pipeline` stdout, with the emitted SQL
and Cypher text, for every other input of the golden and for
`UNBOUND_QUERIES`: YAGO queries with a head variable that no atom
mentions, or a variable that only a label atom mentions. The same script
run writes these too.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from pathforge.ast import to_text
from pathforge.cli import run

from blowup_cases import BLOWUP_CASES
from randutil import random_expr, random_schema_doc

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "goldens" / "corpus_rewrite.jsonl"
DIGESTS = DATA / "goldens" / "output_digests.json"
CORPUS_SEED = 20261018
CORPUS_QUERIES = 200
QUERIES_PER_SCHEMA = 8
YAGO_QUERIES = (
    ("yago-chain", "x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)"),
    ("yago-unrolled", "x,y <- (x, livesIn/isLocatedIn+, y)"),
)
UNBOUND_QUERIES = (
    ("yago-head-only", "x,w <- (x, owns, y) && z:{CITY}"),
    ("yago-labels-only", "w,v <- w:{CITY}"),
    ("yago-enriched-head-only", "x,w <- (x, livesIn/isLocatedIn+, y) && z:{REGION}"),
    ("yago-closure-labeled-head", "x,w <- (x, isLocatedIn+, y) && w:{CITY}"),
    ("yago-union-head-only", "x,w <- (x, livesIn, y) || (w, owns, z) && w:{PERSON}"),
)


def _random_query(rng: random.Random, schema_doc: dict) -> str:
    alphabet = sorted({edge["label"] for edge in schema_doc["edges"]})
    e1 = to_text(random_expr(rng, alphabet, 3))
    e2 = to_text(random_expr(rng, alphabet, 2))
    label = rng.choice([node["label"] for node in schema_doc["nodes"]])
    return rng.choice(
        [
            f"x,y <- (x, {e1}, y)",
            f"x,y <- (x, {e1}, y) && (y, {e2}, z) && z:{{{label}}}",
            f"x,y <- (x, {e1}, y) || (x, {e2}, y)",
            f"x,y <- (x, {e1}, x) && (x, {e2}, y)",
        ]
    )


def corpus_inputs() -> list[tuple[str, dict, str]]:
    """(name, schema document, query text) for every line of the golden."""
    yago = json.loads((DATA / "yago_schema.json").read_text())
    inputs = [(name, yago, text) for name, text in YAGO_QUERIES]
    inputs += [(f"blowup-{name}", doc, text) for name, doc, text in BLOWUP_CASES]
    rng = random.Random(CORPUS_SEED)
    for index in range(CORPUS_QUERIES):
        if index % QUERIES_PER_SCHEMA == 0:
            doc = random_schema_doc(rng)
        inputs.append((f"corpus-{index}", doc, _random_query(rng, doc)))
    return inputs


def _run_cli(workdir: Path, schema_doc: dict, query: str, command: list[str]) -> tuple[int, str]:
    """Exit code and stdout of `pathforge <command>` on the input."""
    schema_path, query_path = workdir / "schema.json", workdir / "query.ucqt"
    schema_path.write_text(json.dumps(schema_doc))
    query_path.write_text(query)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run([*command, "--schema", str(schema_path), "--query", str(query_path)])
    return code, out.getvalue()


def rewrite_json(workdir: Path, schema_doc: dict, query: str) -> tuple[int, str]:
    """Exit code and stdout of `pathforge rewrite --json` on the input."""
    return _run_cli(workdir, schema_doc, query, ["rewrite", "--json"])


DIGEST_COMMANDS = {
    "pipeline": ["pipeline", "--json", "--target", "sql:sqlite", "--target", "cypher"],
    "explain": ["rewrite", "--explain"],
}


def output_digests(workdir: Path) -> dict[str, dict[str, str]]:
    """input name -> command name -> SHA-256 of its stdout: both commands
    for the first four inputs of the golden (yago-exec and infer-blowup),
    `pipeline` for its other inputs and for `UNBOUND_QUERIES`."""
    yago = json.loads((DATA / "yago_schema.json").read_text())
    inputs = corpus_inputs() + [(name, yago, text) for name, text in UNBOUND_QUERIES]
    digests = {}
    for index, (name, schema_doc, query) in enumerate(inputs):
        digests[name] = {}
        commands = DIGEST_COMMANDS if index < 4 else {"pipeline": DIGEST_COMMANDS["pipeline"]}
        for command, argv in commands.items():
            code, stdout = _run_cli(workdir, schema_doc, query, argv)
            assert code == 0, (name, command)
            digests[name][command] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests


def _golden_line(name: str, query: str, code: int, stdout: str) -> str:
    return json.dumps({"name": name, "query": query, "exit": code, "rewrite": json.loads(stdout)})


def test_rewrite_json_matches_the_golden(tmp_path):
    lines = GOLDEN.read_text().splitlines()
    inputs = corpus_inputs()
    assert len(lines) == len(inputs) == 204
    for line, (name, schema_doc, query) in zip(lines, inputs):
        expected = json.loads(line)
        assert (expected["name"], expected["query"]) == (name, query)
        code, stdout = rewrite_json(tmp_path, schema_doc, query)
        assert code == expected["exit"], name
        # the CLI prints json.dumps of the document, so re-dumping the
        # stored document gives back its exact text
        assert stdout == json.dumps(expected["rewrite"]) + "\n", name


def test_pipeline_and_explain_output_match_the_digests(tmp_path):
    assert output_digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = [
            _golden_line(name, query, *rewrite_json(Path(tmp), schema_doc, query))
            for name, schema_doc, query in corpus_inputs()
        ]
        digests = output_digests(Path(tmp))
    GOLDEN.write_text("\n".join(rows) + "\n")
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
