"""Seeded random generators shared by the property suites."""

from __future__ import annotations

import json
import random

from pathforge import (
    BranchL,
    BranchR,
    Concat,
    Conj,
    Label,
    PathExpr,
    Repeat,
    Reverse,
    TransClos,
    Union,
    load_schema,
)
from pathforge.schema import DbEdge, DbNode, GraphDB, GraphSchema


def random_db(rng: random.Random, edge_alphabet: list[str], max_nodes: int = 12) -> GraphDB:
    """A random labeled graph, not tied to any schema."""
    node_count = rng.randint(1, max_nodes)
    node_labels = ["L0", "L1", "L2"]
    nodes = tuple(
        DbNode(id=f"n{i}", label=rng.choice(node_labels), properties=())
        for i in range(node_count)
    )
    edges = []
    edge_count = rng.randint(0, 3 * node_count)
    for index in range(edge_count):
        edges.append(
            DbEdge(
                id=f"e{index}",
                label=rng.choice(edge_alphabet),
                src=rng.choice(nodes).id,
                trg=rng.choice(nodes).id,
            )
        )
    return GraphDB(nodes=nodes, edges=tuple(edges))


def random_expr(rng: random.Random, edge_alphabet: list[str], depth: int = 5) -> PathExpr:
    """A random expression over the given edge labels, depth-bounded."""
    if depth <= 0 or rng.random() < 0.3:
        name = rng.choice(edge_alphabet)
        return Reverse(name) if rng.random() < 0.2 else Label(name)
    kind = rng.choice(["concat", "concat", "union", "conj", "branchr", "branchl", "tc", "repeat"])
    sub = lambda: random_expr(rng, edge_alphabet, depth - 1)
    if kind == "concat":
        return Concat(sub(), sub())
    if kind == "union":
        return Union(sub(), sub())
    if kind == "conj":
        return Conj(sub(), sub())
    if kind == "branchr":
        return BranchR(sub(), sub())
    if kind == "branchl":
        return BranchL(sub(), sub())
    if kind == "tc":
        return TransClos(sub())
    lo = rng.randint(1, 2)
    return Repeat(sub(), lo, lo + rng.randint(0, 2))


def random_schema(rng: random.Random, max_labels: int = 6, max_edges: int = 10) -> GraphSchema:
    """A random strict schema; edge labels may span several label pairs."""
    return load_schema(json.dumps(random_schema_doc(rng, max_labels, max_edges)))


def random_schema_doc(rng: random.Random, max_labels: int = 6, max_edges: int = 10) -> dict:
    """The schema document `random_schema` loads."""
    label_count = rng.randint(1, max_labels)
    node_labels = [f"N{i}" for i in range(label_count)]
    edge_alphabet = [f"e{i}" for i in range(rng.randint(1, 4))]
    signatures = set()
    edge_count = rng.randint(1, max_edges)
    for _ in range(edge_count):
        signature = (rng.choice(node_labels), rng.choice(edge_alphabet), rng.choice(node_labels))
        signatures.add(signature)
    return {
        "nodes": [{"label": label} for label in node_labels],
        "edges": [{"src": s, "label": l, "trg": t} for s, l, t in sorted(signatures)],
    }


def schema_edge_alphabet(schema: GraphSchema) -> list[str]:
    return sorted(schema.edge_labels)
