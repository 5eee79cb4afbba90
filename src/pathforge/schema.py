"""Graph schemas, graph databases, their file formats, and the consistency check.

A schema is a strict typed multigraph: at most one schema node per node
label, at most one schema edge per (source label, edge label, target label),
and node/edge label namespaces are disjoint. Databases are concrete labeled
graphs whose nodes carry JSON-scalar property values.

File formats:
  * schema: a single JSON document, see ``load_schema``;
  * database: two CSV files, ``nodes.csv`` with header ``id,label,props``
    (props is a JSON object or empty) and ``edges.csv`` with header
    ``src,label,trg``.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import re
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .ast import IDENTIFIER
from .record import Frozen

DATA_TYPES = ("String", "Int", "Float", "Bool", "Date")

PropertyValue = str | int | float | bool


class FormatError(ValueError):
    """Malformed schema or database input."""


class SchemaNode(NamedTuple):
    label: str
    properties: tuple[tuple[str, str], ...] = ()

    @property
    def property_types(self) -> dict[str, str]:
        return dict(self.properties)


class SchemaEdge(NamedTuple):
    # src and trg are node labels: a strict schema has one node per label
    label: str
    src: str
    trg: str


class _Graph(Frozen):
    """Nodes and edges, immutable and hashed as the tuple of the two; each
    subclass indexes them in cached properties, stored in the instance
    `__dict__` on first use and built again in a copy."""

    __match_args__ = ("nodes", "edges")
    __slots__ = ("nodes", "edges", "__dict__")

    def __init__(self, nodes: tuple, edges: tuple):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))


class GraphSchema(_Graph):
    __slots__ = ()
    nodes: tuple[SchemaNode, ...]
    edges: tuple[SchemaEdge, ...]

    @cached_property
    def node_by_label(self) -> dict[str, SchemaNode]:
        return {node.label: node for node in self.nodes}

    @cached_property
    def node_labels(self) -> frozenset[str]:
        return frozenset(node.label for node in self.nodes)

    @cached_property
    def edge_labels(self) -> frozenset[str]:
        return frozenset(edge.label for edge in self.edges)

    @cached_property
    def edge_signatures(self) -> frozenset[tuple[str, str, str]]:
        """(source label, edge label, target label) of every schema edge."""
        return frozenset((e.src, e.label, e.trg) for e in self.edges)

    @cached_property
    def _end_labels(self) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
        """Source and target labels of each edge label, indexed once."""
        ends: dict[str, tuple[set[str], set[str]]] = {}
        for src, label, trg in self.edge_signatures:
            sources, targets = ends.setdefault(label, (set(), set()))
            sources.add(src)
            targets.add(trg)
        return {label: (frozenset(s), frozenset(t)) for label, (s, t) in ends.items()}

    def source_labels(self, edge_label: str) -> frozenset[str]:
        return self._end_labels.get(edge_label, (frozenset(), frozenset()))[0]

    def target_labels(self, edge_label: str) -> frozenset[str]:
        return self._end_labels.get(edge_label, (frozenset(), frozenset()))[1]


class DbNode(NamedTuple):
    id: str
    label: str
    properties: tuple[tuple[str, PropertyValue], ...] = ()


class DbEdge(NamedTuple):
    id: str
    label: str
    src: str
    trg: str


class GraphDB(_Graph):
    __slots__ = ()
    nodes: tuple[DbNode, ...]
    edges: tuple[DbEdge, ...]

    @cached_property
    def node_label(self) -> dict[str, str]:
        return {node.id: node.label for node in self.nodes}

    @cached_property
    def ids_by_label(self) -> dict[str, frozenset[str]]:
        """The ids of the nodes of each node label."""
        out: dict[str, set[str]] = {}
        for node in self.nodes:
            out.setdefault(node.label, set()).add(node.id)
        return {label: frozenset(ids) for label, ids in out.items()}

    @cached_property
    def edge_pairs(self) -> dict[str, frozenset[tuple[str, str]]]:
        out: dict[str, set[tuple[str, str]]] = {}
        for edge in self.edges:
            out.setdefault(edge.label, set()).add((edge.src, edge.trg))
        return {label: frozenset(pairs) for label, pairs in out.items()}

    def successors_of(self, label: str) -> dict[str, set[str]]:
        """The target ids of each source id along edge ``label``; read-only."""
        return self._grouped(label, reverse=False)

    def predecessors_of(self, label: str) -> dict[str, set[str]]:
        """The source ids of each target id along edge ``label``; read-only."""
        return self._grouped(label, reverse=True)

    @cached_property
    def _groups(self) -> dict[tuple[str, bool], dict[str, set[str]]]:
        # (label, reverse) -> its map, each built on first use
        return {}

    def _grouped(self, label: str, reverse: bool) -> dict[str, set[str]]:
        out = self._groups.get((label, reverse))
        if out is None:
            out = self._groups[label, reverse] = {}
            for pair in self.edge_pairs.get(label, ()):
                first, second = pair[::-1] if reverse else pair
                if first in out:
                    out[first].add(second)
                else:
                    out[first] = {second}
        return out


_ISO_DATE = "%Y-%m-%d"
# strptime alone accepts unpadded fields such as "2020-1-1"
_ISO_DATE_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def value_type(value: PropertyValue) -> str:
    """Data type of a property value; a string that is exactly YYYY-MM-DD and
    a real calendar day counts as Date."""
    if isinstance(value, bool):
        return "Bool"
    if isinstance(value, int):
        return "Int"
    if isinstance(value, float):
        return "Float"
    if isinstance(value, str):
        if _ISO_DATE_SHAPE.fullmatch(value):
            try:
                datetime.datetime.strptime(value, _ISO_DATE)
                return "Date"
            except ValueError:
                pass
        return "String"
    raise FormatError(f"unsupported property value {value!r}")


def _has_type(value: PropertyValue, type_name: str) -> bool:
    # any string, date-like or not, is a valid String
    return value_type(value) == type_name or (type_name == "String" and isinstance(value, str))


# labels are spliced into query text and SQL as they are
_IDENTIFIER = re.compile(IDENTIFIER)


def _parse_json(text: str, what: str):
    # besides JSONDecodeError, an integer of over 4,300 digits raises a plain
    # ValueError, and a document nested past the recursion limit a
    # RecursionError, which the command would report as a too deep expression
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc


def _entries(doc: dict, key: str) -> list[dict]:
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise FormatError(f"schema {key!r} must be a list of objects")
    return entries


def _identifier(entry: dict, key: str, what: str) -> str:
    value = entry.get(key)
    if not isinstance(value, str) or not _IDENTIFIER.fullmatch(value):
        raise FormatError(f"{what} {key} must be an identifier, got {value!r}")
    return value


def load_schema(source: str | Path) -> GraphSchema:
    """Load a schema from a JSON document: a ``Path`` is read from disk, a
    ``str`` is the document itself.

    Expected shape::

        {"nodes": [{"label": "PERSON", "properties": {"name": "String"}}],
         "edges": [{"label": "owns", "src": "PERSON", "trg": "PROPERTY"}]}

    Every label, ``src`` and ``trg`` must be an identifier, as in queries.
    """
    text = source.read_text() if isinstance(source, Path) else source
    doc = _parse_json(text, "schema")
    if not isinstance(doc, dict):
        raise FormatError("schema document must be a JSON object")

    nodes = []
    labels_seen = set()
    for entry in _entries(doc, "nodes"):
        label = _identifier(entry, "label", "schema node")
        if label in labels_seen:
            raise FormatError(f"duplicate schema node label {label!r}")
        labels_seen.add(label)
        props = entry.get("properties", {})
        if not isinstance(props, dict):
            raise FormatError(f"properties of schema node {label!r} must be an object")
        for key, type_name in props.items():
            if type_name not in DATA_TYPES:
                raise FormatError(
                    f"unknown data type {type_name!r} for property {key!r} of schema node {label!r}"
                )
        nodes.append(SchemaNode(label=label, properties=tuple(sorted(props.items()))))

    edges = []
    signatures = set()
    for entry in _entries(doc, "edges"):
        label, src, trg = (_identifier(entry, k, "schema edge") for k in ("label", "src", "trg"))
        if label in labels_seen:
            raise FormatError(f"label {label!r} used for both a node and an edge")
        for endpoint in (src, trg):
            if endpoint not in labels_seen:
                raise FormatError(f"dangling endpoint: no schema node labeled {endpoint!r}")
        signature = (src, label, trg)
        if signature in signatures:
            raise FormatError(f"duplicate schema edge {signature!r}")
        signatures.add(signature)
        edges.append(SchemaEdge(label=label, src=src, trg=trg))

    return GraphSchema(nodes=tuple(nodes), edges=tuple(edges))


def _read_csv(source: str | Path, expected_header: list[str], what: str) -> list[dict[str, str]]:
    text = source.read_text() if isinstance(source, Path) else source
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise FormatError(f"{what} is not valid CSV: {exc}") from exc
    if not rows or rows[0] != expected_header:
        raise FormatError(f"{what} must start with header {','.join(expected_header)!r}")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(expected_header):
            raise FormatError(f"{what} row has {len(row)} fields, expected {len(expected_header)}")
        out.append(dict(zip(expected_header, row)))
    return out


def load_db(nodes_source: str | Path, edges_source: str | Path) -> GraphDB:
    """Load a database from nodes.csv and edges.csv: a ``Path`` is read from
    disk, a ``str`` is the CSV text itself."""
    node_rows = _read_csv(nodes_source, ["id", "label", "props"], "nodes.csv")
    edge_rows = _read_csv(edges_source, ["src", "label", "trg"], "edges.csv")

    nodes = []
    node_labels: dict[str, str] = {}
    for row in node_rows:
        node_id, label = row["id"], row["label"]
        if node_id in node_labels:
            raise FormatError(f"duplicate node id {node_id!r}")
        if not node_id or not label:
            raise FormatError("node rows need both id and label")
        _identifier(row, "label", "nodes.csv")
        props_text = row["props"].strip()
        props: dict[str, PropertyValue] = {}
        if props_text:
            props = _parse_json(props_text, f"node {node_id!r} props")
            if not isinstance(props, dict):
                raise FormatError(f"node {node_id!r} props must be a JSON object")
            for key, value in props.items():
                if not isinstance(value, PropertyValue):
                    raise FormatError(
                        f"node {node_id!r} property {key!r} has unsupported value {value!r}"
                    )
        node_labels[node_id] = label
        nodes.append(DbNode(id=node_id, label=label, properties=tuple(sorted(props.items()))))

    node_label_set = set(node_labels.values())
    edges = []
    for index, row in enumerate(edge_rows):
        src, label, trg = row["src"], _identifier(row, "label", "edges.csv"), row["trg"]
        if label in node_label_set:
            raise FormatError(f"label {label!r} used for both a node and an edge")
        for endpoint in (src, trg):
            if endpoint not in node_labels:
                raise FormatError(f"dangling endpoint: edge references missing node {endpoint!r}")
        edges.append(DbEdge(id=f"e{index}", label=label, src=src, trg=trg))

    return GraphDB(nodes=tuple(nodes), edges=tuple(edges))


def save_db(db: GraphDB, out_dir: str | Path) -> tuple[Path, Path]:
    """Write nodes.csv and edges.csv under out_dir; returns the two paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nodes_path = out / "nodes.csv"
    edges_path = out / "edges.csv"
    with nodes_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "label", "props"])
        for node in db.nodes:
            props = dict(node.properties)
            writer.writerow([node.id, node.label, json.dumps(props) if props else ""])
    with edges_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src", "label", "trg"])
        for edge in db.edges:
            writer.writerow([edge.src, edge.label, edge.trg])
    return nodes_path, edges_path


class Violation(NamedTuple):
    kind: str
    element: str
    detail: str


class ConsistencyReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def consistent(self) -> bool:
        return not self.violations


def check_consistency(db: GraphDB, schema: GraphSchema) -> ConsistencyReport:
    """Check that the database maps into the schema.

    Under a strict schema the mapping is determined by labels alone: a node
    maps to the unique schema node of its label, an edge to the unique schema
    edge with its (source label, edge label, target label) signature, and
    every property key/value pair must be declared with the value's type.
    Violations are collected, never raised.
    """
    violations: list[Violation] = []
    for node in db.nodes:
        schema_node = schema.node_by_label.get(node.label)
        if schema_node is None:
            violations.append(
                Violation("unknown_node_label", node.id, f"no schema node labeled {node.label!r}")
            )
            continue
        declared = schema_node.property_types
        for key, value in node.properties:
            if key not in declared:
                violations.append(
                    Violation(
                        "unknown_property",
                        node.id,
                        f"property {key!r} not declared for label {node.label!r}",
                    )
                )
            elif not _has_type(value, declared[key]):
                violations.append(
                    Violation(
                        "property_type_mismatch",
                        node.id,
                        f"property {key!r} has type {value_type(value)}, "
                        f"schema wants {declared[key]}",
                    )
                )
    node_label = db.node_label
    for edge in db.edges:
        signature = (node_label[edge.src], edge.label, node_label[edge.trg])
        if signature not in schema.edge_signatures:
            violations.append(
                Violation(
                    "unknown_edge",
                    edge.id,
                    f"no schema edge ({signature[0]}, {edge.label}, {signature[2]})",
                )
            )
    return ConsistencyReport(violations=tuple(violations))
