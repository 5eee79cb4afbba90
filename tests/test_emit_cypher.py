import pytest

from pathforge import parse_query
from pathforge.emit_cypher import UnsupportedReport, emit_cypher
from pathforge.emit_sql import EmitError

Q2_ENRICHED = "SRC,TRG <- (SRC, knows/workAt/{Organisation}isLocatedIn, TRG)"
Q1_BASELINE = "SRC,TRG <- (SRC, knows/workAt/isLocatedIn, TRG)"


def golden(data_dir, name):
    return (data_dir / "goldens" / name).read_text()


def test_enriched_golden(ldbc_schema, data_dir):
    assert emit_cypher(parse_query(Q2_ENRICHED), ldbc_schema) == golden(
        data_dir, "q2_enriched.cypher"
    )


def test_baseline_golden(ldbc_schema, data_dir):
    assert emit_cypher(parse_query(Q1_BASELINE), ldbc_schema) == golden(
        data_dir, "q1_baseline.cypher"
    )


def test_conjunction_unsupported(yago_schema):
    report = emit_cypher(parse_query("x,y <- (x, owns&livesIn, y)"), yago_schema)
    assert isinstance(report, UnsupportedReport)
    assert report.construct == "conjunction"


def test_branch_unsupported(yago_schema):
    report = emit_cypher(parse_query("x,y <- (x, livesIn[owns], y)"), yago_schema)
    assert isinstance(report, UnsupportedReport)
    assert report.construct == "branch"


def test_composite_closure_unsupported(yago_schema):
    report = emit_cypher(parse_query("x,y <- (x, (livesIn/isLocatedIn)+, y)"), yago_schema)
    assert report == UnsupportedReport("closure of a composite path", "(livesIn/isLocatedIn)+")


def test_composite_repetition_unsupported(yago_schema):
    query = parse_query("x,y <- (x, owns/(isLocatedIn/isLocatedIn){1,2}, y)")
    report = emit_cypher(query, yago_schema)
    assert report == UnsupportedReport(
        "repetition of a composite path", "(isLocatedIn/isLocatedIn){1,2}"
    )


def test_union_holding_a_composite_path_unsupported(yago_schema):
    report = emit_cypher(parse_query("x,y <- (x, (owns|livesIn/isLocatedIn)+, y)"), yago_schema)
    assert report == UnsupportedReport("union of composite expressions", "livesIn/isLocatedIn")


def test_reverse_flips_arrow(yago_schema):
    text = emit_cypher(parse_query("x,y <- (x, -owns/livesIn, y)"), yago_schema)
    assert text == "MATCH (x)<-[:owns]-()-[:livesIn]->(y)\nRETURN DISTINCT x, y;\n"


def test_closure_and_repeat_quantifiers(yago_schema):
    text = emit_cypher(parse_query("x,y <- (x, isMarriedTo+, y)"), yago_schema)
    assert text == "MATCH (x)-[:isMarriedTo*1..]->(y)\nRETURN DISTINCT x, y;\n"
    text = emit_cypher(parse_query("x,y <- (x, isMarriedTo{1,3}, y)"), yago_schema)
    assert text == "MATCH (x)-[:isMarriedTo*1..3]->(y)\nRETURN DISTINCT x, y;\n"


def test_label_alternation(ldbc_schema):
    query = parse_query("x,y <- (x, (knows|workAt)+, y)")
    text = emit_cypher(query, ldbc_schema)
    assert text == "MATCH (x)-[:knows|workAt*1..]->(y)\nRETURN DISTINCT x, y;\n"
    # a union of three labels is one node, however it is grouped
    for union in ("knows|workAt|isLocatedIn", "knows|(workAt|isLocatedIn)"):
        text = emit_cypher(parse_query(f"x,y <- (x, {union}, y)"), ldbc_schema)
        assert text == "MATCH (x)-[:knows|workAt|isLocatedIn]->(y)\nRETURN DISTINCT x, y;\n"
    text = emit_cypher(parse_query("x,y <- (x, -knows|(-workAt|-isLocatedIn), y)"), ldbc_schema)
    assert text == "MATCH (x)<-[:knows|workAt|isLocatedIn]-(y)\nRETURN DISTINCT x, y;\n"


def test_mixed_direction_union_unsupported(yago_schema):
    report = emit_cypher(parse_query("x,y <- (x, owns|-owns, y)"), yago_schema)
    assert isinstance(report, UnsupportedReport)
    assert report.construct == "union of mixed directions"
    for union in ("owns|livesIn|-owns", "owns|(livesIn|-owns)"):
        report = emit_cypher(parse_query(f"x,y <- (x, {union}, y)"), yago_schema)
        assert report == UnsupportedReport("union of mixed directions", "owns|livesIn|-owns")


def test_multi_label_junction(yago_schema):
    query = parse_query("x,y <- (x, livesIn/{CITY,REGION}isLocatedIn, y)")
    text = emit_cypher(query, yago_schema)
    assert text == "MATCH (x)-[:livesIn]->(:CITY|REGION)-[:isLocatedIn]->(y)\nRETURN DISTINCT x, y;\n"


def test_label_atoms_attach_to_first_occurrence(yago_schema):
    query = parse_query(
        "x,y <- (x, livesIn/isLocatedIn, _g1) && (_g1, isLocatedIn/dealsWith+, y)"
        " && _g1:{REGION}"
    )
    text = emit_cypher(query, yago_schema)
    assert text == (
        "MATCH (x)-[:livesIn]->()-[:isLocatedIn]->(_g1:REGION), "
        "(_g1)-[:isLocatedIn]->()-[:dealsWith*1..]->(y)\n"
        "RETURN DISTINCT x, y;\n"
    )


def test_detached_label_atom_becomes_node_pattern(yago_schema):
    text = emit_cypher(parse_query("z <- z:{CITY}"), yago_schema)
    assert text == "MATCH (z:CITY)\nRETURN DISTINCT z;\n"


def test_union_of_disjuncts(yago_schema):
    text = emit_cypher(parse_query("x,y <- (x, owns, y) || (x, livesIn, y)"), yago_schema)
    assert text == (
        "MATCH (x)-[:owns]->(y)\nRETURN DISTINCT x, y;\n"
        "UNION\n"
        "MATCH (x)-[:livesIn]->(y)\nRETURN DISTINCT x, y;\n"
    )


def test_empty_query(yago_schema):
    assert (
        emit_cypher(parse_query("x,y <- EMPTY"), yago_schema)
        == "RETURN DISTINCT NULL AS x, NULL AS y LIMIT 0;\n"
    )


def test_unknown_labels_rejected(yago_schema):
    with pytest.raises(EmitError):
        emit_cypher(parse_query("x,y <- (x, fliesTo, y)"), yago_schema)
