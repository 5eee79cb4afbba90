"""Any text given to the CLI as an expression or a query ends in a documented
exit code (0, 2, 3 or 4), never an exception.

A text is either a string of up to twelve tokens of the query language over
the README schema's labels, or a well-formed expression or query over them
with at most one token replaced by another, so that every stage runs on some
of them. Single-digit bounds and two levels of nesting keep repetitions small.
"""

from __future__ import annotations

import io
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
