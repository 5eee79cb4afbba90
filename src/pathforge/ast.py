"""AST node types for path expressions, plus the canonical printer and desugaring.

Expressions are immutable; every operation below returns new nodes. The
concrete syntax uses `/` for composition, `|` for union, `&` for conjunction,
postfix `+` for transitive closure, `{m,n}` for bounded repetition, `-label`
for reversal of a single edge label, `main[test]` / `[test]main` for the two
branch filters, and `/{A,B}` for a composition step constrained to junction
nodes labeled A or B. That junction label set is the optional third field of
`Concat`: `None` is a plain composition, and a set (even an empty one) is a
constraint, so code tests `labels is not None`, never its truth value.

`map_children` is the one rebuild of a node over new children. Each
structural rewrite (`desugar`, `strip_annotations`, the simplifier's
normalisation, the rewriter's pruning of vacuous annotations) is its one
special case plus `map_children`. A node whose children all come back as
they are is returned itself, so subtrees that `desugar` shares stay shared.

Each node keeps three caches, filled on first use: its hash, its text
without outer parentheses (`_render` adds those by context), and its
`strip_annotations` result. Inference builds every triple's expression
from its operands' expressions, so thousands of triples share most of
their nodes; without the caches each was hashed, rendered and stripped
from scratch. The caches are sound because a node never changes after it
is built. They live in the slots of the base class `_Node`, so they take
no part in `==`, `repr`, `dataclasses.fields` or `__match_args__`, and the
hash keeps the dataclass's own formula, the hash of the tuple of fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator

# a node or edge label, or a query variable, as the concrete syntax spells it
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"


class _Node:
    """Per-node caches; a slot is unset until its value is first computed.

    `_plain` holds None when the node is its own plain form: a node that
    referred to itself would be a cycle, which reference counting alone
    never frees.
    """

    __slots__ = ("_hash", "_text", "_plain")


def _cache_hash(cls):
    """Give `cls` the dataclass's hash, that of the tuple of its fields,
    computed once per node."""
    names = tuple(f.name for f in fields(cls))

    # builds the tuple itself rather than calling the dataclass's __hash__,
    # so that hashing a tree stays at one frame per level
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple([getattr(self, name) for name in names]))
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


@_cache_hash
@dataclass(frozen=True, slots=True)
class Label(_Node):
    name: str


@_cache_hash
@dataclass(frozen=True, slots=True)
class Reverse(_Node):
    # reversal is restricted to single edge labels
    name: str


@_cache_hash
@dataclass(frozen=True, slots=True)
class Concat(_Node):
    """Composition; with ``labels``, the junction node must carry one of them."""

    left: "PathExpr"
    right: "PathExpr"
    labels: frozenset[str] | None = None


@_cache_hash
@dataclass(frozen=True, slots=True)
class Union(_Node):
    left: "PathExpr"
    right: "PathExpr"


@_cache_hash
@dataclass(frozen=True, slots=True)
class Conj(_Node):
    left: "PathExpr"
    right: "PathExpr"


@_cache_hash
@dataclass(frozen=True, slots=True)
class BranchR(_Node):
    """`main[test]`: keep main pairs whose target has an outgoing test path."""

    main: "PathExpr"
    test: "PathExpr"


@_cache_hash
@dataclass(frozen=True, slots=True)
class BranchL(_Node):
    """`[test]main`: keep main pairs whose source has an outgoing test path."""

    test: "PathExpr"
    main: "PathExpr"


@_cache_hash
@dataclass(frozen=True, slots=True)
class TransClos(_Node):
    inner: "PathExpr"


@_cache_hash
@dataclass(frozen=True, slots=True)
class Repeat(_Node):
    """Bounded repetition `e{m,n}`, pure sugar for a union of compositions."""

    inner: "PathExpr"
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"repeat bounds must satisfy 1 <= m <= n, got {{{self.lo},{self.hi}}}")


PathExpr = Label | Reverse | Concat | Union | Conj | BranchR | BranchL | TransClos | Repeat

# precedence levels, loosest first; used by the printer to decide parentheses
_PREC_UNION = 0
_PREC_CONJ = 1
_PREC_CONCAT = 2
_PREC_BRANCH = 3
_PREC_POSTFIX = 4
_PREC_ATOM = 5


def precedence(expr: PathExpr) -> int:
    if isinstance(expr, (Label, Reverse)):
        return _PREC_ATOM
    if isinstance(expr, (TransClos, Repeat)):
        return _PREC_POSTFIX
    if isinstance(expr, (BranchR, BranchL)):
        return _PREC_BRANCH
    if isinstance(expr, Concat):
        return _PREC_CONCAT
    if isinstance(expr, Conj):
        return _PREC_CONJ
    return _PREC_UNION


def _label_set(labels: frozenset[str]) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


def to_text(expr: PathExpr) -> str:
    """Canonical concrete syntax; `parse_path_expr(to_text(e)) == e` holds."""
    return _render(expr, 0)


def _render(expr: PathExpr, min_prec: int) -> str:
    # the text without outer parentheses is rendered once per node; the
    # recursion stays at two frames per tree level, this one and _render_raw
    try:
        text = expr._text
    except AttributeError:
        text = _render_raw(expr)
        object.__setattr__(expr, "_text", text)
    if precedence(expr) < min_prec:
        return "(" + text + ")"
    return text


def _render_raw(expr: PathExpr) -> str:
    if isinstance(expr, Label):
        return expr.name
    if isinstance(expr, Reverse):
        return "-" + expr.name
    if isinstance(expr, TransClos):
        return _render(expr.inner, _PREC_POSTFIX) + "+"
    if isinstance(expr, Repeat):
        return _render(expr.inner, _PREC_POSTFIX) + "{%d,%d}" % (expr.lo, expr.hi)
    if isinstance(expr, BranchR):
        # a main that is itself a left branch would re-parse with the wrong
        # nesting, so it always gets parentheses
        if isinstance(expr.main, BranchL):
            main = "(" + _render(expr.main, 0) + ")"
        else:
            main = _render(expr.main, _PREC_BRANCH)
        return main + "[" + _render(expr.test, 0) + "]"
    if isinstance(expr, BranchL):
        return "[" + _render(expr.test, 0) + "]" + _render(expr.main, _PREC_BRANCH)
    if isinstance(expr, Concat):
        junction = "" if expr.labels is None else _label_set(expr.labels)
        return _render(expr.left, _PREC_CONCAT) + "/" + junction + _render(expr.right, _PREC_BRANCH)
    if isinstance(expr, Conj):
        return _render(expr.left, _PREC_CONJ) + "&" + _render(expr.right, _PREC_CONCAT)
    if isinstance(expr, Union):
        return _render(expr.left, _PREC_UNION) + "|" + _render(expr.right, _PREC_CONJ)
    raise TypeError(f"not a path expression: {expr!r}")


def children(expr: PathExpr) -> tuple[PathExpr, ...]:
    if isinstance(expr, (Label, Reverse)):
        return ()
    if isinstance(expr, (TransClos, Repeat)):
        return (expr.inner,)
    if isinstance(expr, BranchR):
        return (expr.main, expr.test)
    if isinstance(expr, BranchL):
        return (expr.test, expr.main)
    return (expr.left, expr.right)


def walk(expr: PathExpr) -> Iterator[PathExpr]:
    """All subexpressions, the node itself included, in pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


# node types by how `map_children` rebuilds them
_LEAF, _PAIR, _CONCAT, _BRANCH_R, _BRANCH_L, _CLOSURE, _REPEAT = range(7)
_SHAPE = {
    Label: _LEAF,
    Reverse: _LEAF,
    Concat: _CONCAT,
    Union: _PAIR,
    Conj: _PAIR,
    BranchR: _BRANCH_R,
    BranchL: _BRANCH_L,
    TransClos: _CLOSURE,
    Repeat: _REPEAT,
}


def map_children(expr: PathExpr, f: Callable[[PathExpr], PathExpr]) -> PathExpr:
    """The node rebuilt with `f` applied to each child, in `children` order.

    A node whose children `f` all returns as they are (`is`), a leaf
    included, comes back itself; anything other than a path expression
    raises TypeError.
    """
    # f is called from this frame, so a recursive rewrite through here nests
    # two frames per tree level; a per-type helper that called f would add a
    # third and cut the chain length that fits under the recursion limit
    kind = type(expr)
    shape = _SHAPE.get(kind)
    if shape == _LEAF:
        return expr
    if shape == _CLOSURE or shape == _REPEAT:
        inner = f(expr.inner)
        if inner is expr.inner:
            return expr
        return TransClos(inner) if shape == _CLOSURE else Repeat(inner, expr.lo, expr.hi)
    if shape == _BRANCH_R:
        first, second = expr.main, expr.test
    elif shape == _BRANCH_L:
        first, second = expr.test, expr.main
    elif shape is None:
        raise TypeError(f"not a path expression: {expr!r}")
    else:
        first, second = expr.left, expr.right
    new_first, new_second = f(first), f(second)
    if new_first is first and new_second is second:
        return expr
    if shape == _CONCAT:
        return Concat(new_first, new_second, expr.labels)
    # Union, Conj, BranchR and BranchL take their children in `children` order
    return kind(new_first, new_second)


def desugar(expr: PathExpr) -> PathExpr:
    """Expand every bounded repetition into a union of compositions.

    e{m,n} becomes e^m | e^(m+1) | ... | e^n with left-leaning unions and
    compositions, e.g. a{2,3} -> (a/a) | (a/a/a).
    """
    if isinstance(expr, Repeat):
        inner = desugar(expr.inner)
        alternatives = [_power(inner, k) for k in range(expr.lo, expr.hi + 1)]
        out = alternatives[0]
        for alt in alternatives[1:]:
            out = Union(out, alt)
        return out
    return map_children(expr, desugar)


def _power(expr: PathExpr, k: int) -> PathExpr:
    out = expr
    for _ in range(k - 1):
        out = Concat(out, expr)
    return out


def strip_annotations(expr: PathExpr) -> PathExpr:
    """The plain expression underlying an annotated one, computed once per node."""
    try:
        plain = expr._plain
    except AttributeError:
        if isinstance(expr, Concat) and expr.labels is not None:
            plain = Concat(strip_annotations(expr.left), strip_annotations(expr.right))
        else:
            plain = map_children(expr, strip_annotations)
        object.__setattr__(expr, "_plain", None if plain is expr else plain)
        return plain
    return expr if plain is None else plain


def has_annotations(expr: PathExpr) -> bool:
    # an annotated node's plain form is a new node; the form is cached, so
    # asking again about a node or its subtrees walks nothing
    return strip_annotations(expr) is not expr


def flatten_chain(expr: PathExpr) -> tuple[list[PathExpr], list[frozenset[str] | None]]:
    """Flatten the composition spine into factors and junction constraints.

    Returns (factors, junctions) with len(junctions) == len(factors) - 1;
    junction i sits between factor i and factor i+1 and is None when the
    step is unconstrained. Composition is associative, so the original
    grouping is irrelevant to the callers.
    """
    factors: list[PathExpr] = []
    junctions: list[frozenset[str] | None] = []

    def go(node: PathExpr) -> None:
        if isinstance(node, Concat):
            go(node.left)
            junctions.append(node.labels)
            go(node.right)
        else:
            factors.append(node)

    go(expr)
    return factors, junctions


def build_chain(factors: list[PathExpr], junctions: list[frozenset[str] | None]) -> PathExpr:
    """Inverse of flatten_chain, rebuilt left-leaning."""
    out = factors[0]
    for junction, factor in zip(junctions, factors[1:]):
        out = Concat(out, factor, junction)
    return out
