"""The two infer-blowup inputs of the benchmark, written out here so that
tests need not import the benchmark. Case A multiplies triples through
composition joins; case B runs closure enumeration into the path limit."""

from __future__ import annotations


def _e0_schema(count: int, arcs: str) -> dict:
    """Nodes N0.. and one `e0` edge per two-digit arc, e.g. "12" is N1->N2."""
    return {
        "nodes": [{"label": f"N{i}"} for i in range(count)],
        "edges": [{"src": f"N{a}", "label": "e0", "trg": f"N{b}"} for a, b in arcs.split()],
    }


# (name, schema document, query)
BLOWUP_CASES = (
    ("A", _e0_schema(3, "00 11 12 20 21 22"), "x,y <- (x, (e0/([-e0]e0){1,2}){1,3}, y)"),
    (
        "B",
        _e0_schema(4, "00 11 12 13 21 22 32"),
        "x,y <- (x, e0{1,2}{2,3}+[([e0]-e0)[e0&e0]&e0{2,4}/[-e0]e0], y)",
    ),
)
