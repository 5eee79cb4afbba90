"""Any text given to the CLI as an expression, a query, a schema or a
database ends in a documented exit code (0, 2, 3 or 4), never an exception.

An expression or query text is either a string of up to twelve tokens of the
query language over the README schema's labels, or a well-formed expression
or query over them with at most one token replaced by another, so that every
stage runs on some of them. Single-digit bounds and two levels of nesting
keep repetitions small.

A schema is the README schema with one value replaced: by a value of another
JSON type, a string that is no identifier, a duplicate, or the value nested
one or two levels deeper. A database is the README database's CSV text with
one defect: a broken header, a ragged row, props that are not a JSON object
of scalars, or an id that is empty, duplicated or dangling.
"""

from __future__ import annotations

import copy
import csv
import functools
import io
import json
import operator
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pathforge.cli import run

DATA = Path(__file__).parent / "data"
YAGO = str(DATA / "yago_schema.json")
DB = f"{DATA / 'yago_nodes.csv'},{DATA / 'yago_edges.csv'}"
EDGE_LABELS = ("isMarriedTo", "livesIn", "owns", "isLocatedIn", "dealsWith")
NODE_LABELS = ("PERSON", "PROPERTY", "CITY", "REGION", "COUNTRY")
VARIABLES = ("x", "y")
OPERATORS = ("/", "|", "&", "+", "-", "(", ")", "[", "]", "{", "}", ",", "<-", "&&", "||", ":")
TOKENS = (*EDGE_LABELS, *NODE_LABELS, *VARIABLES, *OPERATORS, *"0123456789")
DIGITS = st.sampled_from("0123456789")


@st.composite
def expression(draw, depth: int = 2) -> list[str]:
    """The tokens of a well-formed expression, nested at most ``depth`` deep."""
    label = draw(st.sampled_from(EDGE_LABELS))
    kind = "leaf" if depth == 0 else draw(st.sampled_from(["leaf", "-", "/|&", "[", "]", "+{"]))
    if kind in ("leaf", "-"):
        return [label] if kind == "leaf" or depth == 0 else ["-", label]
    inner = draw(expression(depth - 1))
    if kind == "+{":
        if draw(st.booleans()):
            return ["(", *inner, ")", "+"]
        return ["(", *inner, ")", "{", draw(DIGITS), ",", draw(DIGITS), "}"]
    other = draw(expression(depth - 1))
    if kind == "[":
        return ["(", *inner, "[", *other, "]", ")"]
    if kind == "]":
        return ["(", "[", *inner, "]", *other, ")"]
    return ["(", *inner, draw(st.sampled_from(kind)), *other, ")"]


@st.composite
def query(draw) -> list[str]:
    """The tokens of a well-formed query, with one or two conjuncts."""
    head = draw(st.sampled_from([["x"], ["x", ",", "y"], ["y", ",", "x"]]))
    tokens = [*head, "<-"]
    for index in range(draw(st.integers(1, 2))):
        src, trg = draw(st.sampled_from(VARIABLES)), draw(st.sampled_from(VARIABLES))
        tokens += ["||"] * (index > 0) + ["(", src, ",", *draw(expression()), ",", trg, ")"]
        if draw(st.booleans()):
            labeled = draw(st.sampled_from(VARIABLES))
            tokens += ["&&", labeled, ":", "{", draw(st.sampled_from(NODE_LABELS)), "}"]
    return tokens


@st.composite
def edited(draw, tokens: st.SearchStrategy[list[str]]) -> str:
    """The tokens joined, with at most one of them replaced."""
    tokens = list(draw(tokens))
    if draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
    return "".join(tokens)


SOUP = st.builds(
    lambda tokens, sep: sep.join(tokens),
    st.lists(st.sampled_from(TOKENS), max_size=12),
    st.sampled_from(["", " "]),
)
EXPRESSIONS = st.one_of(SOUP, edited(expression()))
QUERIES = st.one_of(SOUP, edited(query()))
BOUNDARY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _exit_code(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run(argv)


@BOUNDARY
@given(EXPRESSIONS)
def test_expression_commands_exit_with_a_documented_code(text):
    # `--` keeps a text that starts with `-` from reading as an option
    assert _exit_code(["simplify", "--", text]) in (0, 2)
    assert _exit_code(["infer", "--schema", YAGO, "--", text]) in (0, 2)


@BOUNDARY
@given(QUERIES)
def test_query_commands_exit_with_a_documented_code(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("query") / "q.ucqt"
    path.write_text(text)
    for argv in (
        ["rewrite", "--schema", YAGO],
        ["pipeline", "--schema", YAGO],
        ["emit", "--target", "cypher", "--schema", YAGO],
        ["eval", "--db", DB],
    ):
        assert _exit_code([*argv, "--query", str(path)]) in (0, 2, 3, 4), argv


README_QUERY = "x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)"
SCHEMA_DOC = json.loads((DATA / "yago_schema.json").read_text())
OTHER_TYPES = (None, True, 0, 1.5, "PERSON", [], {}, ["PERSON"], {"label": "PERSON"})
NON_IDENTIFIERS = ("", "1x", "is-located", "two words", "é", "x;", " PERSON")


def _paths(value, path=()):
    """The key path of every value in a JSON document, the root's included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*path, index))


@st.composite
def schema_text(draw) -> str:
    """The README schema with the value at one key path replaced."""
    doc = copy.deepcopy(SCHEMA_DOC)
    path = draw(st.sampled_from(list(_paths(doc))))
    old = functools.reduce(operator.getitem, path, doc)
    kind = draw(st.sampled_from(["type", "identifier", "duplicate", "nesting"]))
    if kind == "type":
        new = draw(st.sampled_from(OTHER_TYPES))
    elif kind == "identifier":
        new = draw(st.sampled_from(NON_IDENTIFIERS))
    elif kind == "duplicate" and isinstance(old, list) and old:
        new = old + [old[draw(st.integers(0, len(old) - 1))]]
    elif kind == "duplicate":
        new = draw(st.sampled_from([*EDGE_LABELS, *NODE_LABELS]))
    else:
        new = draw(st.sampled_from([[old], {"label": old}, [[old]]]))
    if not path:
        return json.dumps(new)
    *parents, last = path
    functools.reduce(operator.getitem, parents, doc)[last] = new
    return json.dumps(doc)


def _csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def _csv_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


NODE_ROWS = _csv_rows(DATA / "yago_nodes.csv")
EDGE_ROWS = _csv_rows(DATA / "yago_edges.csv")
BROKEN_HEADERS = ([], [""], ["id", "label"], ["id", "label", "props", "x"], ["ID", "LABEL", "PROPS"])
BAD_PROPS = (
    "{",
    "[1]",
    '"name"',
    "null",
    '{"name": [1]}',
    '{"name": {"first": "J"}}',
    '{"name": null}',
    '{"age": ' + "1" * 5000 + "}",
    '{"name": ' + "[" * 20 + "]" * 20 + "}",
)


@st.composite
def database_text(draw) -> tuple[str, str]:
    """nodes.csv and edges.csv of the README database with one defect."""
    nodes, edges = copy.deepcopy(NODE_ROWS), copy.deepcopy(EDGE_ROWS)
    rows = draw(st.sampled_from([nodes, edges]))
    row = rows[draw(st.integers(1, len(rows) - 1))]
    kind = draw(st.sampled_from(["header", "ragged", "props", "empty", "duplicate", "dangling"]))
    if kind == "header":
        rows[0] = draw(st.sampled_from(BROKEN_HEADERS))
    elif kind == "ragged":
        row[:] = row[:-1] if draw(st.booleans()) else row + ["x"]
    elif kind == "props":
        nodes[draw(st.integers(1, len(nodes) - 1))][2] = draw(st.sampled_from(BAD_PROPS))
    elif kind == "empty":
        row[draw(st.integers(0, 2))] = ""
    elif kind == "duplicate":
        row[0] = rows[1][0]
    else:
        edges[draw(st.integers(1, len(edges) - 1))][draw(st.sampled_from([0, 2]))] = "n99"
    return _csv_text(nodes), _csv_text(edges)


@BOUNDARY
@given(schema_text())
def test_schema_commands_exit_with_a_documented_code(tmp_path_factory, text):
    workdir = tmp_path_factory.mktemp("schema")
    schema, query = workdir / "schema.json", workdir / "q.ucqt"
    schema.write_text(text)
    query.write_text(README_QUERY)
    for argv in (
        ["infer", "livesIn/isLocatedIn+"],
        ["rewrite", "--query", str(query)],
        ["check", "--db", DB],
        ["gen", "--seed", "1", "--nodes", "2", "--prob", "0.5", "--out", str(workdir / "gen")],
    ):
        assert _exit_code([*argv, "--schema", str(schema)]) in (0, 2, 3, 4), argv


@BOUNDARY
@given(database_text())
def test_database_commands_exit_with_a_documented_code(tmp_path_factory, texts):
    workdir = tmp_path_factory.mktemp("db")
    nodes, edges, query = workdir / "nodes.csv", workdir / "edges.csv", workdir / "q.ucqt"
    nodes.write_text(texts[0])
    edges.write_text(texts[1])
    query.write_text(README_QUERY)
    db = f"{nodes},{edges}"
    for argv in (
        ["check", "--schema", YAGO, "--db", db],
        ["eval", "--db", db, "--query", str(query)],
    ):
        assert _exit_code(argv) in (0, 2, 3, 4), argv
