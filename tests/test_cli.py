import argparse
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pathforge.cli
import pathforge.inference
import pathforge.rewriter
from pathforge import parse_path_expr, parse_query
from pathforge.cli import run
from pathforge.parser import MAX_NESTING

from blowup_cases import BLOWUP_CASES

YAGO = "tests/data/yago_schema.json"
DB = "tests/data/yago_nodes.csv,tests/data/yago_edges.csv"
README_QUERY = "x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)"


@pytest.fixture()
def query_file(tmp_path):
    def write(text):
        path = tmp_path / "q.ucqt"
        path.write_text(text)
        return str(path)

    return write


def test_simplify_command(capsys):
    assert run(["simplify", "((a+)+)+"]) == 0
    assert capsys.readouterr().out == "a+\n"


def test_simplify_json(capsys):
    assert run(["simplify", "--json", "a{1,2}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"input": "a{1,2}", "normal_form": "a|a/a"}


def test_simplify_parse_error(capsys):
    assert run(["simplify", "a//"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_repetition_bound_past_the_integer_digit_limit_exits_2(query_file, capsys):
    bound = "1" * 5000
    assert run(["simplify", f"a{{{bound},2}}"]) == 2
    path = query_file(f"x,y <- (x, owns{{1,{bound}}}, y)")
    assert run(["eval", "--db", DB, "--query", path]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: repeat bound of 5000 digits is too long (at offset 2)",
        "error: repeat bound of 5000 digits is too long (at offset 18)",
    ]


def test_infer_command(capsys):
    assert run(["infer", "--schema", YAGO, "livesIn/isLocatedIn+"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "PERSON  --[ livesIn/{CITY}isLocatedIn ]-->  REGION",
        "PERSON  --[ livesIn/{CITY}isLocatedIn/{REGION}isLocatedIn ]-->  COUNTRY",
    ]


def test_infer_json_round_trips(capsys):
    assert run(["infer", "--schema", YAGO, "--json", "livesIn/isLocatedIn+"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert parse_path_expr(doc["expr"]) == parse_path_expr("livesIn/isLocatedIn+")
    for triple in doc["triples"]:
        parse_path_expr(triple["expr"])  # must parse back


# the rendered triples of `infer` and `rewrite --explain`, byte for byte
@pytest.mark.parametrize(
    "command, golden",
    [
        (["infer", "livesIn/isLocatedIn+/dealsWith+"], "readme_chain_infer.txt"),
        (["infer", "--json", "livesIn/isLocatedIn+/dealsWith+"], "readme_chain_infer.json"),
        (["rewrite", "--explain", "--query", None], "readme_chain_explain.txt"),
        (["rewrite", "--explain", "--json", "--query", None], "readme_chain_explain.json"),
        # six triples, so a printer that forgot to sort them would show
        (["infer", "isLocatedIn+"], "islocatedin_closure_infer.txt"),
        (["infer", "--json", "isLocatedIn+"], "islocatedin_closure_infer.json"),
    ],
)
def test_explain_output_golden(command, golden, query_file, data_dir, capsys):
    argv = [query_file(README_QUERY) if arg is None else arg for arg in command]
    assert run(argv[:1] + ["--schema", YAGO] + argv[1:]) == 0
    assert capsys.readouterr().out == (data_dir / "goldens" / golden).read_text()


HELP_COMMANDS = ["", "simplify", "infer", "rewrite", "eval", "emit", "gen", "check", "pipeline"]


def test_help_output_golden(data_dir, monkeypatch, capsys):
    # the golden holds `pathforge [COMMAND] --help` for each command, run in
    # fresh processes at COLUMNS=80, in order; argparse wraps to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for command in HELP_COMMANDS:
        argv = [*command.split(), "--help"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        pages.append(f"$ pathforge {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(pages) == (data_dir / "goldens" / "cli_help.txt").read_text()


def test_check_consistent(capsys):
    assert run(["check", "--schema", YAGO, "--db", DB]) == 0
    assert capsys.readouterr().out == "consistent\n"


def test_check_inconsistent(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text('id,label,props\nn1,BANANA,\n')
    edges = tmp_path / "edges.csv"
    edges.write_text("src,label,trg\n")
    code = run(["check", "--schema", YAGO, "--db", f"{nodes},{edges}"])
    assert code == 3
    assert "unknown_node_label" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize(
    "node_rows, edge_rows, message",
    [
        ("n1,A,\n", "n1,,n1\n", "edges.csv label must be an identifier, got ''"),
        ("n1,A,\n", "n1,has part,n1\n", "edges.csv label must be an identifier, got 'has part'"),
        ("n1,MY CITY,\n", "", "nodes.csv label must be an identifier, got 'MY CITY'"),
        ('n1,A,"{""name"": null}"\n', "", "node 'n1' property 'name' has unsupported value None"),
    ],
    ids=["empty-edge-label", "spaced-edge-label", "spaced-node-label", "null-prop"],
)
def test_malformed_db_exits_2_naming_the_element(
    command, node_rows, edge_rows, message, tmp_path, query_file, capsys
):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,label,props\n" + node_rows)
    edges = tmp_path / "edges.csv"
    edges.write_text("src,label,trg\n" + edge_rows)
    argv = ["--db", f"{nodes},{edges}"]
    if command == "check":
        argv += ["--schema", YAGO]
    else:
        argv += ["--query", query_file("x,y <- (x, owns, y)")]
    assert run([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_unknown_data_type_exits_2_naming_the_schema_node(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"nodes": [{"label": "P", "properties": {"name": 0}}]}))
    assert run(["check", "--schema", str(schema), "--db", DB]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown data type 0 for property 'name' of schema node 'P'\n"


@pytest.mark.parametrize(
    "declared,value,code",
    [
        ("String", "2020-01-01", 0),
        ("Date", "2020-01-01", 0),
        ("Date", "soon", 3),
        ("Date", "2020-1-1", 3),
    ],
)
def test_check_types_values_by_declared_type(declared, value, code, tmp_path, capsys):
    # a date-like string is still a valid String; a Date must parse as one
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"nodes": [{"label": "P", "properties": {"p": declared}}]}))
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(f'id,label,props\nn1,P,"{{""p"": ""{value}""}}"\n')
    edges = tmp_path / "edges.csv"
    edges.write_text("src,label,trg\n")
    assert run(["check", "--schema", str(schema), "--db", f"{nodes},{edges}"]) == code
    out = capsys.readouterr().out
    assert ("property_type_mismatch" in out) == (code == 3), out


def test_rewrite_command(query_file, capsys):
    path = query_file("x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)")
    assert run(["rewrite", "--schema", YAGO, "--query", path]) == 0
    assert capsys.readouterr().out.strip() == (
        "x,y <- (x, livesIn/isLocatedIn, _g1) && (_g1, isLocatedIn/dealsWith+, y)"
        " && _g1:{REGION}"
    )


def test_rewrite_explain_table(query_file, capsys):
    path = query_file("x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)")
    assert run(["rewrite", "--schema", YAGO, "--query", path, "--explain"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["TERM", "TRIPLES", "RULE"]
    assert "isLocatedIn+" in out and "TPlus" in out and "TConcat" in out


def test_rewrite_json_round_trips(query_file, capsys):
    path = query_file("x,y <- (x, livesIn/isLocatedIn+, y)")
    assert run(["rewrite", "--schema", YAGO, "--query", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert parse_query(doc["enriched"])
    assert doc["reverted"] == {"0.0": False}


def test_rewrite_warning_strict(query_file, capsys):
    path = query_file("x,y <- (x, owns/owns, y)")
    assert run(["rewrite", "--schema", YAGO, "--query", path]) == 0
    assert run(["rewrite", "--schema", YAGO, "--query", path, "--strict"]) == 4
    err = capsys.readouterr().err
    assert "unsatisfiable" in err


def test_rewrite_of_the_empty_query_passes_strict(query_file, capsys):
    path = query_file("x <- EMPTY")
    assert run(["rewrite", "--schema", YAGO, "--query", path, "--strict"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x <- EMPTY\n"
    assert captured.err == ""


def test_eval_command(query_file, capsys):
    path = query_file("x,y <- (x, livesIn/isLocatedIn+, y)")
    assert run(["eval", "--db", DB, "--query", path]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == ["n2\tn5", "n2\tn7", "n3\tn5", "n3\tn7"]


def test_emit_sql_command(query_file, capsys):
    path = query_file("x,y <- (x, dealsWith+, y)")
    assert run(["emit", "--target", "sql:postgres", "--schema", YAGO, "--query", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("WITH RECURSIVE tc_1(Sr, Tr) AS (")
    assert out.endswith(";\n")


def test_emit_cypher_unsupported(query_file, capsys):
    path = query_file("x,y <- (x, owns&livesIn, y)")
    assert run(["emit", "--target", "cypher", "--schema", YAGO, "--query", path]) == 0
    captured = capsys.readouterr()
    assert "conjunction" in captured.err
    assert run(["emit", "--target", "cypher", "--schema", YAGO, "--query", path, "--strict"]) == 4


def test_emit_as_view(query_file, capsys):
    path = query_file("x,y <- (x, owns, y)")
    assert (
        run(["emit", "--target", "sql:mysql", "--schema", YAGO, "--query", path, "--as-view"]) == 0
    )
    assert capsys.readouterr().out.startswith("CREATE OR REPLACE VIEW query_result AS\n")


def test_gen_then_check_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "db"
    assert (
        run(
            [
                "gen", "--schema", YAGO, "--seed", "7", "--nodes", "3",
                "--prob", "0.5", "--out", str(out_dir), "--json",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes"] == 15
    db_arg = f"{doc['nodes_csv']},{doc['edges_csv']}"
    assert run(["check", "--schema", YAGO, "--db", db_arg]) == 0


def test_gen_deterministic(tmp_path):
    for name in ("a", "b"):
        assert (
            run(
                [
                    "gen", "--schema", YAGO, "--seed", "9", "--nodes", "2",
                    "--prob", "0.3", "--out", str(tmp_path / name),
                ]
            )
            == 0
        )
    assert (tmp_path / "a" / "nodes.csv").read_text() == (tmp_path / "b" / "nodes.csv").read_text()
    assert (tmp_path / "a" / "edges.csv").read_text() == (tmp_path / "b" / "edges.csv").read_text()


def test_pipeline_command(query_file, capsys):
    path = query_file("x,y <- (x, livesIn/isLocatedIn+/dealsWith+, y)")
    code = run(
        ["pipeline", "--schema", YAGO, "--query", path, "--target", "sql:postgres", "--target", "cypher"]
    )
    assert code == 0
    out = capsys.readouterr().out
    for section in ("== derivation ==", "== baseline ==", "== enriched ==", "== sql:postgres ==", "== cypher =="):
        assert section in out


def test_limit_flags(query_file, capsys):
    path = query_file("x,y <- (x, livesIn/isLocatedIn+, y)")
    assert run(["rewrite", "--schema", YAGO, "--query", path, "--disjunct-limit", "1"]) == 0
    assert capsys.readouterr().out.strip() == "x,y <- (x, livesIn/isLocatedIn+, y)"
    assert run(["rewrite", "--schema", YAGO, "--query", path]) == 0
    assert capsys.readouterr().out.strip() == (
        "x,y <- (x, livesIn/isLocatedIn, _g1) && (_g1, isLocatedIn, y) && _g1:{REGION}"
        " && y:{COUNTRY} || (x, livesIn/isLocatedIn, y) && y:{REGION}"
    )
    assert run(["infer", "--strict", "--schema", YAGO, "isLocatedIn+"]) == 0
    assert capsys.readouterr().err == ""
    assert run(["infer", "--strict", "--schema", YAGO, "--path-limit", "2", "isLocatedIn+"]) == 4
    assert capsys.readouterr().err == (
        "warning: path enumeration exceeded 2 paths; keeping the closure\n"
    )
    # the limits have no file form
    with pytest.raises(SystemExit) as info:
        run(["rewrite", "--schema", YAGO, "--query", path, "--config", "pathforge.conf"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        ("infer", "--path-limit"),
        ("rewrite", "--path-limit"),
        ("rewrite", "--disjunct-limit"),
        ("pipeline", "--path-limit"),
        ("pipeline", "--disjunct-limit"),
    ],
)
def test_negative_caps_exit_2(command, flag, query_file, capsys):
    inputs = ["isLocatedIn+"] if command == "infer" else ["--query", query_file(README_QUERY)]
    assert run([command, "--schema", YAGO, flag, "-1", *inputs]) == 2
    name = flag.removeprefix("--").replace("-", " ")
    assert capsys.readouterr() == ("", f"error: {name} must be at least 0, got -1\n")
    # 0 is a cap like any other
    assert run([command, "--schema", YAGO, flag, "0", *inputs]) == 0


@pytest.mark.parametrize("target", ["sql:", "sql:oracle", "sql", "postgres"])
def test_pipeline_rejects_an_unknown_target_before_rewriting(target, query_file, monkeypatch, capsys):
    def no_rewrite(*args, **kwargs):
        raise AssertionError("rewrite ran")

    monkeypatch.setattr(pathforge.cli, "rewrite", no_rewrite)
    path = query_file(README_QUERY)
    with pytest.raises(SystemExit) as info:
        run(["pipeline", "--schema", YAGO, "--query", path, "--target", target])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --target: invalid choice" in captured.err


def test_infer_prints_a_repeated_warning_once(capsys):
    # each of the three closures runs past the path limit
    expr = "(isLocatedIn+|isLocatedIn+)&isLocatedIn+"
    argv = ["infer", "--schema", YAGO, "--path-limit", "2", expr]
    warning = "warning: path enumeration exceeded 2 paths; keeping the closure\n"
    assert run(argv) == 0
    assert capsys.readouterr().err == warning
    assert run(argv + ["--strict"]) == 4
    assert capsys.readouterr().err == warning


def test_missing_file_is_exit_2(capsys):
    assert run(["rewrite", "--schema", YAGO, "--query", "/nonexistent.ucqt"]) == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["simplify", "--bogus", "a"])
    assert exc.value.code == 2


def test_no_color_env(query_file, monkeypatch, capsys):
    monkeypatch.setenv("PATHFORGE_NO_COLOR", "1")
    path = query_file("x,y <- (x, owns/owns, y)")
    run(["rewrite", "--schema", YAGO, "--query", path])
    assert "\x1b[" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["rewrite", "--explain"], ["pipeline"]])
def test_join_work_overflow_reverts_under_explain(command, query_file, monkeypatch, capsys):
    monkeypatch.setattr(pathforge.inference, "DEFAULT_JOIN_WORK_LIMIT", 0)
    argv = command + ["--json", "--schema", YAGO, "--query", query_file(README_QUERY)]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert "reverting" in captured.err
    doc = json.loads(captured.out)
    assert doc["reverted"] == {"0.0": True}
    # only the sub-terms inferred before the cap stopped the atom
    assert [row["term"] for row in doc["explain"]] == ["livesIn", "isLocatedIn", "isLocatedIn+"]
    assert run(argv + ["--strict"]) == 4
    assert "reverting" in capsys.readouterr().err


def test_pipeline_infers_each_atom_once(query_file, monkeypatch, capsys):
    calls = []
    for module in (pathforge.rewriter, pathforge.inference):

        def counted(*args, _infer=module.infer, **kwargs):
            calls.append(args[0])
            return _infer(*args, **kwargs)

        monkeypatch.setattr(module, "infer", counted)
    assert run(["pipeline", "--json", "--schema", YAGO, "--query", query_file(README_QUERY)]) == 0
    assert len(calls) == 1
    # a row per sub-term: the chain and its three factors, and the two
    # closures' bodies
    assert len(json.loads(capsys.readouterr().out)["explain"]) == 6


NEST = MAX_NESTING // 2
AT_THE_CAP = [
    "(isMarriedTo/" * MAX_NESTING + "isMarriedTo" + ")" * MAX_NESTING,
    "isMarriedTo[" * MAX_NESTING + "isMarriedTo" + "]" * MAX_NESTING,
    "([" * NEST + "isMarriedTo" + "]isMarriedTo)+" * NEST,
    "[isMarriedTo]" * MAX_NESTING + "isMarriedTo",
]


@pytest.mark.parametrize("expr", AT_THE_CAP, ids=["concat", "branch", "mixed", "leading"])
def test_nesting_at_the_cap_runs_every_stage(expr, query_file):
    assert run(["simplify", expr]) == 0
    path = query_file(f"x,y <- (x, {expr}, y)")
    argv = ["pipeline", "--schema", YAGO, "--query", path, "--target", "sql:sqlite"]
    assert run(argv + ["--target", "cypher"]) == 0


def test_nesting_past_the_cap_exits_2(query_file, capsys):
    deeper = "(" * (MAX_NESTING + 1) + "isMarriedTo" + ")" * (MAX_NESTING + 1)
    assert run(["simplify", deeper]) == 2
    assert f"nested deeper than {MAX_NESTING}" in capsys.readouterr().err
    assert run(["rewrite", "--schema", YAGO, "--query", query_file(f"x,y <- (x, {deeper}, y)")]) == 2
    # "[" counts toward the same cap as "("
    at_the_cap = "(" * MAX_NESTING + "isMarriedTo" + ")" * MAX_NESTING
    assert run(["simplify", at_the_cap]) == 0
    assert run(["simplify", "[" + at_the_cap + "]isMarriedTo"]) == 2
    # so does each leading source-side test
    assert run(["simplify", "[isMarriedTo]" * (MAX_NESTING + 1) + "isMarriedTo"]) == 2


def _child_env(**extra):
    src = str(Path(pathforge.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}


def _cli_in_fresh_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "pathforge.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )


def _simplify_in_fresh_process(expr):
    return _cli_in_fresh_process("simplify", expr)


def test_deep_nesting_exits_2_without_traceback():
    proc = _simplify_in_fresh_process("(" * 3000 + "a" + ")" * 3000)
    assert proc.returncode == 2
    assert "error: brackets nested deeper than" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_many_leading_tests_exit_2_without_traceback():
    proc = _simplify_in_fresh_process("[a]" * 3000 + "a")
    assert proc.returncode == 2
    assert "error: brackets nested deeper than" in proc.stderr
    assert "Traceback" not in proc.stderr


TOO_DEEP = {
    # a postfix operator and a trailing test still nest one level each
    "closure": ("isMarriedTo" + "+" * 2000, "error: expression nested too deeply\n"),
    "tests": ("isMarriedTo" + "[isMarriedTo]" * 2000, "error: expression nested too deeply\n"),
    "repeat": (
        "isMarriedTo{1,600}",
        "error: repetition isMarriedTo{1,600} expands to 180300 factors, more than 150000\n",
    ),
}


@pytest.mark.parametrize("expr, error", TOO_DEEP.values(), ids=TOO_DEEP.keys())
def test_too_deep_for_recursion_exits_2(expr, error, query_file, capsys):
    assert run(["simplify", expr]) == 2
    assert capsys.readouterr().err == error
    assert run(["rewrite", "--schema", YAGO, "--query", query_file(f"x,y <- (x, {expr}, y)")]) == 2
    assert capsys.readouterr().err == error


def test_a_chain_of_thousands_of_factors_runs_every_stage(query_file):
    # a run of one operator is one node over its operands, however long
    chain = "/".join(["isMarriedTo"] * 5000)
    union = "|".join(["isMarriedTo"] * 2000)
    conj = "&".join(["isMarriedTo"] * 2000)
    # the union's alternatives are one expression, and the others revert
    for expr, rewritten in ((chain, chain), (union, "isMarriedTo"), (conj, conj)):
        path = query_file(f"x,y <- (x, {expr}, y)")
        expected = {"simplify": expr, "rewrite": f"x,y <- (x, {rewritten}, y)"}
        for argv in (
            ["simplify", expr],
            ["rewrite", "--schema", YAGO, "--query", path],
            ["eval", "--db", DB, "--query", path],
            ["emit", "--target", "sql:sqlite", "--schema", YAGO, "--query", path],
        ):
            proc = _cli_in_fresh_process(*argv)
            assert (proc.returncode, proc.stderr) == (0, ""), argv[0]
            if argv[0] in expected:
                assert proc.stdout == expected[argv[0]] + "\n"


def test_json_nested_too_deeply_exits_2_naming_the_file(tmp_path, query_file, capsys):
    deep = "[" * 50_000 + "]" * 50_000
    schema = tmp_path / "deep.json"
    schema.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["rewrite", "--schema", str(schema), "--query", query_file(README_QUERY)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: schema is not valid JSON: maximum recursion depth")
    assert "expression" not in err
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    nodes.write_text(f'id,label,props\nn1,PERSON,"{{""a"": {deep}}}"\n')
    edges.write_text("src,label,trg\n")
    db = f"{nodes},{edges}"
    for argv in (
        ["check", "--schema", YAGO, "--db", db],
        ["eval", "--db", db, "--query", query_file(README_QUERY)],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: node 'n1' props is not valid JSON: maximum recursion")
        assert "expression" not in err


def test_a_repetition_bound_past_the_recursion_limit_exits_2_at_once():
    # desugar refuses the bound before it builds ten thousand powers
    start = time.perf_counter()
    proc = _cli_in_fresh_process("simplify", "a{1,10000}")
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        "error: repetition a{1,10000} expands to 50005000 factors, more than 150000\n",
    )


def nested_repetition(body, levels):
    """((body){1,2}){1,2}... with ``levels`` repetitions, expanding to 3^levels
    factors of body."""
    for _ in range(levels):
        body = f"({body}){{1,2}}"
    return body


# the innermost repetition past the bound: 3^11 = 177,147 factors
ELEVEN_LEVELS = "isMarriedTo" + "{1,2}" * 11
NESTED_ERROR = f"error: repetition {ELEVEN_LEVELS} expands to 177147 factors, more than 150000\n"


def test_nested_repetitions_are_bounded_as_one_expansion(capsys):
    # twelve levels expand to 531,441 factors, though each level alone has 3
    assert run(["simplify", nested_repetition("isMarriedTo", 12)]) == 2
    assert capsys.readouterr() == ("", NESTED_ERROR)


def test_twenty_nested_repetitions_exit_2_without_traceback(query_file):
    # 3^20 factors: expanding them ran until the process was killed
    expr = nested_repetition("isMarriedTo", 20)
    assert len(expr) == 151
    path = query_file(f"x,y <- (x, {expr}, y)")
    for argv in (["simplify", expr], ["pipeline", "--schema", YAGO, "--query", path]):
        proc = _cli_in_fresh_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", NESTED_ERROR), argv[0]


def test_stages_that_keep_a_repetition_run_a_deep_one(query_file, capsys):
    # the evaluator and the Cypher emitter never desugar, so no depth applies
    path = query_file("x,y <- (x, owns{1,5000}, y)")
    assert run(["eval", "--db", DB, "--query", path]) == 0
    assert run(["emit", "--target", "cypher", "--schema", YAGO, "--query", path]) == 0
    assert "[:owns*1..5000]" in capsys.readouterr().out


WIDE_RANGE = "x,y <- (x, isMarriedTo{1,1000}, y)"
WIDE_RANGE_ERROR = "error: repetition isMarriedTo{1,1000} expands to 500500 factors, more than 150000\n"


def test_sql_emission_of_a_wide_range_needs_no_expansion(query_file, capsys):
    # a range is one depth-bounded recursive CTE, whatever its bound
    path = query_file(WIDE_RANGE)
    assert run(["emit", "--target", "sql:sqlite", "--schema", YAGO, "--query", path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "WHERE tc_1.d < 1000\n" in out
    assert len(out) < 400


@pytest.mark.parametrize("command", ["rewrite", "pipeline"])
def test_inference_of_a_wide_range_still_exits_2(command, query_file, capsys):
    # inference reads the desugared expression, so it still expands the range
    assert run([command, "--schema", YAGO, "--query", query_file(WIDE_RANGE)]) == 2
    assert capsys.readouterr() == ("", WIDE_RANGE_ERROR)


def test_sql_emission_bounds_the_chain_of_a_fixed_power(query_file, capsys):
    # a range inside a fixed power counts one factor of its chain
    fits = query_file("x,y <- (x, isMarriedTo{1,1000}{2,2}{1000,1000}, y)")
    assert run(["emit", "--target", "sql:sqlite", "--schema", YAGO, "--query", fits]) == 0
    capsys.readouterr()
    power = "(isMarriedTo/isMarriedTo{1,1000}){75001,75001}"
    over = query_file(f"x,y <- (x, {power}, y)")
    assert run(["emit", "--target", "sql:sqlite", "--schema", YAGO, "--query", over]) == 2
    error = f"error: repetition {power} expands to 150002 factors, more than 150000\n"
    assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize("label", ["isLocatedIn", "isMarriedTo"])
def test_eval_of_a_huge_repetition_bound_stops_early(label, tmp_path, query_file, capsys):
    # isLocatedIn's powers empty out and isMarriedTo's repeat within ten
    huge = tmp_path / "huge.ucqt"
    huge.write_text(f"x,y <- (x, {label}{{1,100000000}}, y)")
    start = time.perf_counter()
    proc = _cli_in_fresh_process("eval", "--db", DB, "--query", str(huge))
    assert time.perf_counter() - start < 5
    assert run(["eval", "--db", DB, "--query", query_file(f"x,y <- (x, {label}{{1,10}}, y)")]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
    assert proc.stdout


@pytest.mark.parametrize(
    "huge, small",
    [
        # isMarriedTo's powers alternate between two relations
        ("isMarriedTo{100000000,100000000}", "isMarriedTo{2,2}"),
        ("isMarriedTo{100000001,100000001}", "isMarriedTo{1,1}"),
        # squaring runs in a loop: a bound of 1,329 bits needs no deep stack
        (f"isMarriedTo{{{10**400},{10**400}}}", "isMarriedTo{2,2}"),
    ],
)
def test_eval_of_a_huge_lower_bound_squares_up_to_it(huge, small, tmp_path, query_file, capsys):
    path = tmp_path / "huge.ucqt"
    path.write_text(f"x,y <- (x, {huge}, y)")
    start = time.perf_counter()
    proc = _cli_in_fresh_process("eval", "--db", DB, "--query", str(path))
    assert time.perf_counter() - start < 5
    assert run(["eval", "--db", DB, "--query", query_file(f"x,y <- (x, {small}, y)")]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
    assert proc.stdout


def test_sql_emission_refuses_labels_equal_but_for_case(tmp_path, query_file, capsys):
    # unquoted SQL names ignore case, so node N and edge n would share a table
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps({"nodes": [{"label": "N"}], "edges": [{"label": "n", "src": "N", "trg": "N"}]})
    )
    path = query_file("x,y <- (x, n/n, y)")
    common = ["--schema", str(schema), "--query", path]
    message = (
        "error: schema labels 'N' and 'n' differ only in case, so their SQL tables would clash\n"
    )
    for command in (
        ["emit", "--target", "sql:sqlite", *common],
        ["pipeline", *common, "--target", "cypher", "--target", "sql:postgres"],
    ):
        assert run(command) == 2
        assert capsys.readouterr().err == message
    for command in (
        ["rewrite", *common],
        ["emit", "--target", "cypher", *common],
        ["pipeline", *common, "--target", "cypher"],
    ):
        assert run(command) == 0
        assert capsys.readouterr().err == ""


def test_long_chain_within_recursion_depth_exits_0(query_file):
    chain = "/".join(["isMarriedTo"] * 400)
    assert run(["simplify", chain]) == 0
    assert run(["rewrite", "--schema", YAGO, "--query", query_file(f"x,y <- (x, {chain}, y)")]) == 0


def test_closure_over_a_long_chain_schema_needs_no_stack_per_label(tmp_path, query_file, capsys):
    # e: N0 -> N1 -> ... -> N400. Closure inference walks label sequences
    # without recursing once per label, so a stack far shorter than the chain
    # is enough: the walk passes the path limit and keeps the closure
    n = 400
    schema = tmp_path / "chain.json"
    schema.write_text(
        json.dumps(
            {
                "nodes": [{"label": f"N{i}"} for i in range(n + 1)],
                "edges": [{"label": "e", "src": f"N{i}", "trg": f"N{i + 1}"} for i in range(n)],
            }
        )
    )
    query = query_file("x,y <- (x, e+, y)")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        codes = [run(["infer", "--schema", str(schema), "e+"])]
        infer_out = capsys.readouterr()
        codes.append(run(["rewrite", "--schema", str(schema), "--query", query]))
        rewrite_out = capsys.readouterr()
    finally:
        sys.setrecursionlimit(limit)
    warning = "warning: path enumeration exceeded 10000 paths; keeping the closure\n"
    assert codes == [0, 0]
    assert infer_out.err == rewrite_out.err == warning
    # every pair (Ni, Nj) with i < j keeps the closure
    lines = infer_out.out.splitlines()
    assert len(lines) == n * (n + 1) // 2
    assert "N0  --[ e+ ]-->  N400" in lines
    assert rewrite_out.out == "x,y <- (x, e+, y)\n"


def test_malformed_schema_exits_2_without_traceback(tmp_path, query_file):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"nodes": [{"label": ["A"]}]}))
    query = query_file("x,y <- (x, a, y)")
    proc = _cli_in_fresh_process("rewrite", "--schema", str(schema), "--query", query)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_malformed_db_csv_exits_2_without_traceback(tmp_path, query_file):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,label,props\nn1,PERSON," + "x" * 200_000 + "\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("src,label,trg\n")
    db = f"{nodes},{edges}"
    query = query_file("x,y <- (x, owns, y)")
    for argv in (["check", "--schema", YAGO, "--db", db], ["eval", "--db", db, "--query", query]):
        proc = _cli_in_fresh_process(*argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: nodes.csv is not valid CSV")
        assert "Traceback" not in proc.stderr


# one child process per hash seed; each runs these commands in turn
_HASH_SEED_SCRIPT = """
import sys
from pathforge.cli import run
args = sys.argv[1:]
for schema, query in zip(args[::2], args[1::2]):
    argv = ["--schema", schema, "--query", query, "--target", "sql:sqlite", "--target", "cypher"]
    assert run(["pipeline", "--json", *argv]) == 0
assert run(["infer", "--json", "--schema", args[0], "isLocatedIn+"]) == 0
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # inference returns sets, whose order follows string hashes and so
    # changes between processes; only what is printed must not. The
    # infer-blowup cases fill the largest sets.
    exprs = ["livesIn/isLocatedIn+/dealsWith+", "livesIn/isLocatedIn+", "owns|owns/owns|livesIn"]
    cases = [(YAGO, f"x,y <- (x, {expr}, y)") for expr in exprs]
    for name, schema_doc, text in BLOWUP_CASES:
        schema = tmp_path / f"blowup_{name}.json"
        schema.write_text(json.dumps(schema_doc))
        cases.append((str(schema), text))
    pairs = []
    for index, (schema, text) in enumerate(cases):
        path = tmp_path / f"q{index}.ucqt"
        path.write_text(text)
        pairs += [schema, str(path)]
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, *pairs],
            capture_output=True,
            text=True,
            env=_child_env(PYTHONHASHSEED=seed),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 6
    assert outputs[0] == outputs[1]


def test_a_reused_parser_answers_as_a_fresh_process(query_file, monkeypatch, capsys):
    # `run` keeps one parser per process; what one call parsed must not
    # leak into the next: repeated options, caps, usage errors
    monkeypatch.setenv("COLUMNS", "80")
    query = query_file(README_QUERY)
    pipeline = ["pipeline", "--schema", YAGO, "--query", query]
    infer = ["infer", "--strict", "--schema", YAGO, "isLocatedIn+"]
    calls = [
        pipeline + ["--target", "cypher", "--target", "sql:sqlite"],
        pipeline,
        infer + ["--path-limit", "2"],
        infer,
        ["simplify", "--bogus", "a"],
        ["simplify", "livesIn/isLocatedIn"],
    ]
    codes = []
    for argv in calls:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = _cli_in_fresh_process(*argv)  # inherits COLUMNS
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 4, 0, 2, 0]


def test_run_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    pathforge.cli._parser.cache_clear()
    for expr in ("a", "a/b", "a|b"):
        assert run(["simplify", expr]) == 0
    # one parser and its subcommands' parsers, for all three calls
    assert built == ["pathforge"] + [f"pathforge {command}" for command in HELP_COMMANDS[1:]]


def test_a_cold_import_loads_no_dataclass_machinery():
    # `-S` keeps `site` from importing either module itself
    code = "import sys, pathforge.cli; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
