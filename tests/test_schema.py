import json

import pytest

from pathforge import FormatError, check_consistency, gen_db, load_db, load_schema
from pathforge.schema import DbEdge, DbNode, GraphDB, value_type


def test_yago_schema_shape(yago_schema):
    assert len(yago_schema.nodes) == 5
    assert len(yago_schema.edges) == 7
    assert ("PERSON", "owns", "PROPERTY") in yago_schema.edge_signatures
    assert ("PROPERTY", "isLocatedIn", "CITY") in yago_schema.edge_signatures
    assert ("COUNTRY", "dealsWith", "COUNTRY") in yago_schema.edge_signatures
    assert yago_schema.source_labels("isLocatedIn") == {"PROPERTY", "CITY", "REGION"}
    assert yago_schema.target_labels("isLocatedIn") == {"CITY", "REGION", "COUNTRY"}
    assert yago_schema.node_by_label["PERSON"].property_types == {"name": "String", "age": "Int"}


def test_empty_schema_is_valid():
    schema = load_schema('{"nodes": [], "edges": []}')
    assert schema.nodes == () and schema.edges == ()


def test_dangling_endpoint_rejected():
    doc = {"nodes": [{"label": "A"}], "edges": [{"label": "e", "src": "A", "trg": "B"}]}
    with pytest.raises(FormatError, match="dangling endpoint"):
        load_schema(json.dumps(doc))


def test_duplicate_node_label_rejected():
    doc = {"nodes": [{"label": "A"}, {"label": "A"}], "edges": []}
    with pytest.raises(FormatError, match="duplicate"):
        load_schema(json.dumps(doc))


def test_duplicate_edge_signature_rejected():
    doc = {
        "nodes": [{"label": "A"}],
        "edges": [
            {"label": "e", "src": "A", "trg": "A"},
            {"label": "e", "src": "A", "trg": "A"},
        ],
    }
    with pytest.raises(FormatError, match="duplicate"):
        load_schema(json.dumps(doc))


def test_shared_namespace_rejected():
    doc = {"nodes": [{"label": "A"}], "edges": [{"label": "A", "src": "A", "trg": "A"}]}
    with pytest.raises(FormatError, match="both a node and an edge"):
        load_schema(json.dumps(doc))


_EDGE = {"label": "e", "src": "A", "trg": "A"}


@pytest.mark.parametrize(
    "doc",
    [
        {"nodes": ["A"]},
        {"nodes": "AB"},
        {"nodes": 5},
        {"nodes": None},
        {"nodes": [{"label": "A"}], "edges": {"label": "e"}},
        {"nodes": [{"label": "A"}], "edges": [["e", "A", "A"]]},
        {"nodes": [{"label": "A", "properties": ["x"]}]},
        {"nodes": [{"label": ["A"]}]},
        {"nodes": [{"label": 5}]},
        {"nodes": [{}]},
        {"nodes": [{"label": "MY CITY"}]},
        {"nodes": [{"label": "1A"}]},
        {"nodes": [{"label": "A-B"}]},
        {"nodes": [{"label": "A"}], "edges": [{**_EDGE, "src": ["A"]}]},
        {"nodes": [{"label": "A"}], "edges": [{**_EDGE, "trg": 5}]},
        {"nodes": [{"label": "A"}], "edges": [{**_EDGE, "label": "has part"}]},
        {"nodes": [{"label": "A"}], "edges": [{"src": "A", "trg": "A"}]},
    ],
)
def test_malformed_schema_shapes_raise_format_error(doc):
    # labels are spliced into query text and SQL, so each is an identifier
    with pytest.raises(FormatError):
        load_schema(json.dumps(doc))


def test_identifier_labels_accepted():
    doc = {
        "nodes": [{"label": "_a1"}, {"label": "B"}],
        "edges": [{"label": "e_2", "src": "_a1", "trg": "B"}],
    }
    assert load_schema(json.dumps(doc)).edge_signatures == {("_a1", "e_2", "B")}


def test_unknown_data_type_rejected():
    doc = {"nodes": [{"label": "A", "properties": {"x": "Decimal"}}], "edges": []}
    with pytest.raises(FormatError, match="unknown data type"):
        load_schema(json.dumps(doc))


def test_db_loading(fig2_db):
    assert len(fig2_db.nodes) == 7
    assert len(fig2_db.edges) == 9
    assert fig2_db.node_label["n2"] == "PERSON"
    assert ("n2", "n1") in fig2_db.edge_pairs["owns"]


def test_db_dangling_edge_rejected():
    with pytest.raises(FormatError, match="dangling endpoint"):
        load_db("id,label,props\nn1,A,\n", "src,label,trg\nn1,e,n9\n")


def test_db_duplicate_node_id_rejected():
    with pytest.raises(FormatError, match="duplicate node id"):
        load_db("id,label,props\nn1,A,\nn1,A,\n", "src,label,trg\n")


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ("n1,A,\n", "n1,,n1\n", "edges.csv label must be an identifier, got ''"),
        (
            "n1,A,\n",
            "n1,not an identifier,n1\n",
            "edges.csv label must be an identifier, got 'not an identifier'",
        ),
        ("n1,MY CITY,\n", "", "nodes.csv label must be an identifier, got 'MY CITY'"),
        ("n1,1A,\n", "", "nodes.csv label must be an identifier, got '1A'"),
        # an empty label keeps its own message
        ("n1,,\n", "", "node rows need both id and label"),
    ],
    ids=["empty-edge", "spaced-edge", "spaced-node", "digit-node", "empty-node"],
)
def test_db_labels_must_be_identifiers(nodes, edges, message):
    # labels are spliced into query text and SQL, as in a schema
    with pytest.raises(FormatError) as err:
        load_db(f"id,label,props\n{nodes}", f"src,label,trg\n{edges}")
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["null", "[1]", '{""a"": 1}'])
def test_db_unsupported_property_value_names_node_and_key(value):
    with pytest.raises(FormatError) as err:
        load_db(f'id,label,props\nn1,A,"{{""name"": {value}}}"\n', "src,label,trg\n")
    assert str(err.value).startswith("node 'n1' property 'name' has unsupported value ")


def test_unknown_data_type_names_the_schema_node():
    doc = {"nodes": [{"label": "B"}, {"label": "P", "properties": {"name": 0}}]}
    with pytest.raises(FormatError) as err:
        load_schema(json.dumps(doc))
    assert str(err.value) == "unknown data type 0 for property 'name' of schema node 'P'"


def test_db_csv_field_over_the_csv_module_limit_raises_format_error():
    # the csv module rejects a field over 131,072 characters
    long_field = "x" * 200_000
    with pytest.raises(FormatError, match="^nodes.csv is not valid CSV: field larger"):
        load_db(f"id,label,props\nn1,A,{long_field}\n", "src,label,trg\n")
    with pytest.raises(FormatError, match="^edges.csv is not valid CSV: field larger"):
        load_db("id,label,props\nn1,A,\n", f"src,label,trg\nn1,{long_field},n1\n")


def test_value_types():
    assert value_type("hello") == "String"
    assert value_type("2024-05-01") == "Date"
    # a Date is exactly YYYY-MM-DD and a real calendar day
    for text in ("2020-1-1", "2020-02-30", "20200101", "2020-W01-1", "2020-01-01\n"):
        assert value_type(text) == "String", text
    assert value_type(True) == "Bool"
    assert value_type(7) == "Int"
    assert value_type(1.25) == "Float"


def test_fig2_consistent_with_fig1(yago_schema, fig2_db):
    report = check_consistency(fig2_db, yago_schema)
    assert report.consistent
    assert report.violations == ()


def test_wrong_edge_endpoint_flagged(yago_schema, fig2_db):
    # an owns edge into a CITY has no schema counterpart
    bad = GraphDB(nodes=fig2_db.nodes, edges=fig2_db.edges + (DbEdge("x", "owns", "n2", "n4"),))
    report = check_consistency(bad, yago_schema)
    assert not report.consistent
    assert any(v.kind == "unknown_edge" and v.element == "x" for v in report.violations)


def test_wrong_property_type_flagged(yago_schema, fig2_db):
    nodes = tuple(
        DbNode(n.id, n.label, (("age", "abc"), ("name", "John"))) if n.id == "n2" else n
        for n in fig2_db.nodes
    )
    report = check_consistency(GraphDB(nodes=nodes, edges=fig2_db.edges), yago_schema)
    assert any(
        v.kind == "property_type_mismatch" and v.element == "n2" for v in report.violations
    )


def test_unknown_label_flagged(yago_schema, fig2_db):
    nodes = fig2_db.nodes + (DbNode("n8", "BANANA", ()),)
    report = check_consistency(GraphDB(nodes=nodes, edges=fig2_db.edges), yago_schema)
    assert any(v.kind == "unknown_node_label" and v.element == "n8" for v in report.violations)


def test_gen_db_deterministic_and_consistent(yago_schema):
    first = gen_db(yago_schema, seed=42, nodes_per_label=3, edge_prob=0.5)
    second = gen_db(yago_schema, seed=42, nodes_per_label=3, edge_prob=0.5)
    assert first == second
    assert check_consistency(first, yago_schema).consistent


def test_gen_db_extremes(yago_schema):
    empty = gen_db(yago_schema, seed=1, nodes_per_label=0, edge_prob=0.5)
    assert empty.nodes == () and empty.edges == ()
    assert check_consistency(empty, yago_schema).consistent
    full = gen_db(yago_schema, seed=1, nodes_per_label=2, edge_prob=1.0)
    # every schema edge contributes a complete bipartite pair set
    assert len(full.edges) == len(yago_schema.edges) * 2 * 2


def test_gen_db_values_of_every_type_are_consistent():
    types = {"s": "String", "i": "Int", "f": "Float", "b": "Bool", "d": "Date"}
    doc = {
        "nodes": [{"label": "T", "properties": types}, {"label": "U", "properties": {}}],
        "edges": [{"label": "e", "src": "T", "trg": "U"}],
    }
    schema = load_schema(json.dumps(doc))
    for seed in range(200):
        db = gen_db(schema, seed=seed, nodes_per_label=3, edge_prob=0.5)
        assert check_consistency(db, schema).consistent, seed
        for node in db.nodes:
            assert {key: value_type(value) for key, value in node.properties} == (
                types if node.label == "T" else {}
            )


@pytest.mark.parametrize("nodes_per_label, edge_prob", [(-1, 0.5), (2, 1.5), (2, -0.1)])
def test_gen_db_refuses_bad_arguments(yago_schema, nodes_per_label, edge_prob):
    with pytest.raises(ValueError):
        gen_db(yago_schema, seed=1, nodes_per_label=nodes_per_label, edge_prob=edge_prob)


def test_header_only_csv_text_without_newline_is_an_empty_db():
    db = load_db("id,label,props", "src,label,trg")
    assert db.nodes == () and db.edges == ()


def test_schema_text_that_is_not_json_raises_format_error(tmp_path):
    # a str is the document itself, even when it names an existing file
    path = tmp_path / "schema.json"
    path.write_text('{"nodes": [], "edges": []}')
    with pytest.raises(FormatError, match="not valid JSON"):
        load_schema(str(path))
    assert load_schema(path).nodes == ()


# past the recursion limit, json.loads raises RecursionError, not a decode error
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def test_schema_json_nested_too_deeply_raises_format_error():
    with pytest.raises(FormatError, match="^schema is not valid JSON: maximum recursion depth"):
        load_schema(DEEP_ARRAY)


def test_db_props_nested_too_deeply_raises_format_error():
    # under the csv module's 131,072-character field limit
    props = '"{""a"": ' + "[" * 50_000 + "]" * 50_000 + '}"'
    with pytest.raises(FormatError, match="^node 'n1' props is not valid JSON: maximum recursion"):
        load_db(f"id,label,props\nn1,A,{props}\n", "src,label,trg\n")


def test_db_props_integer_past_the_digit_limit_raises_format_error():
    # json.loads raises a plain ValueError, not JSONDecodeError, past 4,300 digits
    props = '"{""age"": ' + "1" * 5000 + '}"'
    with pytest.raises(FormatError, match="^node 'n1' props is not valid JSON: Exceeds the limit"):
        load_db(f"id,label,props\nn1,A,{props}\n", "src,label,trg\n")
