"""The record classes keep the semantics of frozen and mutable dataclasses:
equality by class and fields, the hash of the tuple of fields, refused
assignment where frozen, the dataclass `repr`, and equal copies and pickles.

Most immutable records are `typing.NamedTuple`s, chosen where a record never
meets a plain tuple, or a record of another class with as many fields, in a
set or a comparison. Being tuples, they compare equal to such a tuple or
record with the same values; `test_named_tuples_compare_as_tuples` pins that
case. The other records compare equal only within their class.
"""

import copy
import pickle

import pytest

from pathforge import Label
from pathforge.emit_cypher import UnsupportedReport
from pathforge.evaluator import EvalStats
from pathforge.inference import DerivationRow, InferenceLog, SchemaTriple
from pathforge.parser import _Token
from pathforge.query import Conjunct, LabelAtom, Relation, UcqtQuery
from pathforge.rewriter import Fragment, MergedTriple, RewriteOutcome
from pathforge.schema import (
    ConsistencyReport,
    DbEdge,
    DbNode,
    GraphDB,
    GraphSchema,
    SchemaEdge,
    SchemaNode,
    Violation,
)

RELATION = Relation("x", Label("e"), "y")
CONJUNCT = Conjunct((RELATION,), (LabelAtom("y", frozenset({"B"})),))
QUERY = UcqtQuery(("x", "y"), (CONJUNCT,))

# (class, fields by name, frozen, hashable)
RECORDS = [
    (SchemaNode, {"label": "A", "properties": (("age", "Int"),)}, True, True),
    (SchemaEdge, {"label": "e", "src": "A", "trg": "B"}, True, True),
    (GraphSchema, {"nodes": (SchemaNode("A"),), "edges": (SchemaEdge("e", "A", "A"),)}, True, True),
    (DbNode, {"id": "n1", "label": "A", "properties": (("age", 3),)}, True, True),
    (DbEdge, {"id": "e1", "label": "e", "src": "n1", "trg": "n2"}, True, True),
    (GraphDB, {"nodes": (DbNode("n1", "A"),), "edges": (DbEdge("e1", "e", "n1", "n1"),)}, True, True),
    (Violation, {"kind": "unknown_edge", "element": "e1", "detail": "no edge"}, True, True),
    (ConsistencyReport, {"violations": (Violation("k", "e1", "d"),)}, True, True),
    (Relation, {"src_var": "x", "expr": Label("e"), "trg_var": "y"}, True, True),
    (LabelAtom, {"var": "x", "labels": frozenset({"A", "B"})}, True, True),
    (Conjunct, {"relations": (RELATION,), "labels": ()}, True, True),
    (UcqtQuery, {"head": ("x", "y"), "disjuncts": (CONJUNCT,)}, True, True),
    (SchemaTriple, {"src": "A", "expr": Label("e"), "trg": "B"}, True, True),
    (DerivationRow, {"term": "e", "rule": "TBasic", "triples": (("A", "e", "B"),)}, True, True),
    (MergedTriple, {"src_set": frozenset({"A"}), "expr": Label("e"), "trg_set": frozenset()}, True, True),
    # frozen, but a dict field makes the hash fail, as for a frozen dataclass
    (
        RewriteOutcome,
        {"enriched": QUERY, "reverted": {(0, 0): False}, "warnings": ("w",), "logs": ()},
        True,
        False,
    ),
    (_Token, {"kind": "ident", "text": "e", "offset": 0}, True, True),
    (UnsupportedReport, {"construct": "conjunction", "detail": "a&b"}, True, True),
    (InferenceLog, {"warnings": ["w"], "steps": [(Label("e"), frozenset())]}, False, False),
    (EvalStats, {"pairs": 3}, False, False),
    (Fragment, {"relations": [RELATION], "labels": {"x": frozenset({"A"})}}, False, False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def _copy(value):
    # equal but not identical, so equality must compare the values
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


@pytest.mark.parametrize("cls, fields, frozen, hashable", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, fields, frozen, hashable):
    record = cls(**fields)
    assert record == cls(*(_copy(v) for v in fields.values()))
    assert tuple(getattr(record, name) for name in cls.__match_args__) == tuple(fields.values())
    first = next(iter(fields))
    assert record != cls(**{**fields, first: None})


@pytest.mark.parametrize("cls, fields, frozen, hashable", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_tuple_of_fields(cls, fields, frozen, hashable):
    record = cls(**fields)
    if hashable:
        assert hash(record) == hash(tuple(fields.values()))
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, fields, frozen, hashable", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, fields, frozen, hashable):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    else:
        setattr(record, name, None)
        assert getattr(record, name) is None


@pytest.mark.parametrize("cls, fields, frozen, hashable", RECORDS, ids=IDS)
def test_repr_has_the_dataclass_format(cls, fields, frozen, hashable):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, frozen, hashable", RECORDS, ids=IDS)
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal(cls, fields, frozen, hashable, duplicate):
    record = cls(**fields)
    assert duplicate(record) == record


def test_defaults():
    assert SchemaNode("A").properties == ()
    assert DbNode("n1", "A").properties == ()
    assert ConsistencyReport().violations == () and ConsistencyReport().consistent
    assert Conjunct((RELATION,)).labels == ()
    assert EvalStats().pairs == 0
    log, other = InferenceLog(), InferenceLog()
    log.warnings.append("w")
    assert (log.warnings, other.warnings, other.steps) == (["w"], [], [])
    fragment, other = Fragment(), Fragment()
    fragment.relations.append(RELATION)
    assert (other.relations, other.labels) == ([], {})


def test_graphs_cache_their_indexes():
    schema = GraphSchema((SchemaNode("A"), SchemaNode("B")), (SchemaEdge("e", "A", "B"),))
    assert schema.node_labels is schema.node_labels == frozenset({"A", "B"})
    assert schema.source_labels("e") == frozenset({"A"})
    db = GraphDB((DbNode("n1", "A"), DbNode("n2", "B")), (DbEdge("e1", "e", "n1", "n2"),))
    assert db.edge_pairs is db.edge_pairs == {"e": frozenset({("n1", "n2")})}
    # the caches take no part in equality, hash or repr
    assert db == GraphDB(db.nodes, db.edges) and hash(db) == hash((db.nodes, db.edges))
    assert "edge_pairs" not in repr(db)


def test_other_records_equal_only_their_own_class():
    nodes, edges = (SchemaNode("A"),), ()
    assert GraphSchema(nodes, edges) != GraphDB(nodes, edges)
    assert GraphSchema(nodes, edges) != (nodes, edges)
    assert InferenceLog([], []) != Fragment([], [])
    assert EvalStats(3) != (3,)


def test_named_tuples_compare_as_tuples():
    # the documented exception: a NamedTuple equals a tuple, or a record of
    # another class, with the same values. No code puts such a pair in one
    # set or compares them: each set and comparison holds one record class
    assert SchemaEdge("a", "b", "c") == Violation("a", "b", "c") == ("a", "b", "c")
    assert Relation("x", Label("e"), "y") == SchemaTriple("x", Label("e"), "y")
