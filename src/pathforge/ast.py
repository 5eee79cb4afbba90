"""AST node types for path expressions, plus the canonical printer and desugaring.

Expressions are immutable; every operation below builds its results through
the constructors and changes no node. The concrete syntax uses `/` for composition, `|` for union, `&` for conjunction,
postfix `+` for transitive closure, `{m,n}` for bounded repetition, `-label`
for reversal of a single edge label, `main[test]` / `[test]main` for the two
branch filters, and `/{A,B}` for a composition step constrained to junction
nodes labeled A or B.

Union, conjunction and composition are associative, so each is one n-ary
node over a flat tuple of two or more operands, none of its own class:
`Union.operands`, `Conj.operands` and `Concat.factors`. Between each two
factors of a chain is a junction, `None` for a plain step or the label set
the junction node must carry one of (never an empty one, which `Concat.chain`
refuses; code tests `is not None`). The constructors splice in an operand of
the node's own class, so `(a|b)|c` and `a|(b|c)` are one node, and a run of
one operator, however long, is one tree level.

Each node class declares in its body its fields, those of them that hold
child nodes (`_kids`; an n-ary node's children are its operands) and its
binding level (`_prec`, which the printer and the parser read).
`map_children` is the one rebuild of a node over new children. Each
structural rewrite (`desugar`, `strip_annotations`, the simplifier's
normalisation, the rewriter's pruning of vacuous annotations) is its one
special case plus `map_children`. A node whose children all come back as
they are is returned itself, so subtrees that `desugar` shares stay shared.

Nodes are hash-consed (Filliâtre and Conchon, *Type-Safe Modular
Hash-Consing*, ML Workshop 2006): building a node whose class and fields
equal those of a live node returns that node, so equal expressions are one
object and `==` is `is`. Inference builds each triple's expression from its
operands' expressions, and grouping and deduplicating thousands of such
triples then compares pointers instead of walking trees.

- The hash stays structural, that of the tuple of fields, and is computed
  once, at construction, from the children's cached hashes. A hash of the
  address would order sets and dicts of nodes by where the nodes happen to
  live, and what is printed must not depend on that.
- The intern table refers to its nodes weakly, so an entry dies with its
  node: a process that parses thousands of queries keeps only the nodes it
  still uses, and reference counting alone empties the table.
- Copying or unpickling a node gives back the canonical node; a copy outside
  the table would be equal by value yet unequal under `==`.

Each node also caches, on first use, its text without outer parentheses
(`_render` adds those by context) and its `strip_annotations` result, which
the triples' shared subtrees would otherwise compute again and again; an
n-ary node gets its text when it is built, joined from its operands'
texts: inference builds a chain or a conjunction an operand at a time onto
the one before, whose text is at hand, where rendering the finished node
would walk all its operands. The caches are sound because a node never
changes after it is built; they take no part in `__match_args__` or `repr`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator
from weakref import ref

from .record import Frozen

# a node or edge label, or a query variable, as the concrete syntax spells it
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"

# the most factors `desugar` expands one repetition into, nested ones
# included: a{1,490} fits; `unroll_powers` and SQL emission bound a fixed
# power's chain by it
MAX_EXPANSION = 150_000


class _Ref(ref):
    """A weak reference to a node that knows the node's key; unlike
    `weakref.KeyedRef`, it is built without a call into Python code."""

    __slots__ = ("key",)


# every live node by its key -> a weak reference to it. A key is the class
# and the fields, a child node given by its id(): the entry lives no longer
# than its node, which holds the child, so no other object can have that id
# meanwhile, and the key hashes and compares without calling back into nodes
_TABLE: dict[tuple, _Ref] = {}
_set = object.__setattr__


def _forget(dead: _Ref) -> None:
    # the node `dead` referred to died. The cyclic collector clears a
    # reference before it calls back, and a node built under the same key
    # in between has a new reference, which stays
    if _TABLE.get(dead.key) is dead:
        del _TABLE[dead.key]


def _intern(key: tuple, fields: tuple):
    """The live node stored under `key`, else a new node of class `key[0]`
    with these fields, which is stored there."""
    entry = _TABLE.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    cls = key[0]
    node = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        _set(node, name, value)
    _set(node, "_hash", hash(fields))
    entry = _TABLE[key] = _Ref(node, _forget)
    entry.key = key
    return node


class _Node(Frozen):
    """The shared behaviour of the node classes. Each class lists its fields,
    in constructor order, as both `__slots__` and `__match_args__`; those that
    hold child nodes, in `children` order, as `_kids`, which lead the
    constructor's fields (an n-ary node holds them in one tuple); and as
    `_prec` its binding level, which the printer and the parser read, from
    0 for `|`, the loosest, to 5 for a label.
    `Frozen` refuses assignment and gives the `repr`; equality is `object`'s,
    identity, as `Record`'s would compare trees field by field.

    `_plain` holds None when the node is its own plain form: a node that
    referred to itself would be a cycle, which reference counting alone
    never frees.
    """

    __slots__ = ("_hash", "_text", "_plain", "__weakref__")
    __eq__ = object.__eq__

    def __hash__(self) -> int:
        return self._hash

    # copy.copy rebuilds through __reduce__, which finds the node itself;
    # copy.deepcopy would first copy the whole tree, and fail on a long chain
    def __deepcopy__(self, memo):
        return self


class Label(_Node):
    __slots__ = __match_args__ = ("name",)
    _kids = ()
    _prec = 5

    def __new__(cls, name: str):
        return _intern((cls, name), (name,))


class Reverse(_Node):
    # reversal is restricted to single edge labels
    __slots__ = __match_args__ = ("name",)
    _kids = ()
    _prec = 5

    def __new__(cls, name: str):
        return _intern((cls, name), (name,))


class _Nary(_Node):
    """An associative operator, built by `chain`; its first field holds its operands."""

    __slots__ = ()

    def __new__(cls, *operands: PathExpr):
        return cls.chain(operands)

    @classmethod
    def chain(cls, operands: Iterable[PathExpr]) -> PathExpr:
        operands = tuple(operands)
        if len(operands) < 2:
            return operands[0]
        flat = tuple([x for op in operands for x in (op.operands if type(op) is cls else (op,))])
        node = _intern((cls, *map(id, flat)), (flat,))
        seps = (cls._op,) * (len(operands) - 1)
        return node if hasattr(node, "_text") else node._named(operands, seps)

    def _named(self, operands: tuple, seps: Iterable[str]) -> PathExpr:
        """The node, given its text: the operands' texts joined by `seps`, one
        of its class whole, any other in parentheses unless it binds tighter."""
        cls = type(self)
        texts = [_render(op, 0 if type(op) is cls else cls._prec + 1) for op in operands]
        _set(self, "_text", texts[0] + "".join(map(str.__add__, seps, texts[1:])))
        return self

    def __reduce__(self):
        return self.chain, self._values()


class Concat(_Nary):
    """Composition: junction i, between factor i and factor i + 1, is None or
    the label set the junction node must carry one of."""

    __slots__ = __match_args__ = ("factors", "junctions")
    _prec = 2

    def __new__(cls, left: PathExpr, right: PathExpr, labels: frozenset[str] | None = None):
        return cls.chain((left, right), (labels,))

    @classmethod
    def chain(
        cls, factors: Iterable[PathExpr], junctions: Iterable[frozenset[str] | None]
    ) -> PathExpr:
        """The composition of the factors, with one junction fewer; a factor
        that is a composition brings its own, and one factor is itself."""
        operands, steps = tuple(factors), tuple(junctions)
        if len(steps) != len(operands) - 1:
            raise ValueError(f"{len(operands)} factors need {len(operands) - 1} junctions")
        if frozenset() in steps:
            raise ValueError("a junction label set must not be empty")
        if len(operands) == 1:
            return operands[0]
        factors, junctions = operands, steps
        if cls in map(type, operands):
            # each operand's own junctions, then the one after it
            flat, joints = [], []
            for operand, junction in zip(operands, (*steps, None)):
                flat += operand.factors if type(operand) is cls else (operand,)
                joints += operand.junctions if type(operand) is cls else ()
                joints.append(junction)
            factors, junctions = tuple(flat), tuple(joints[:-1])
        node = _intern((cls, junctions, *map(id, factors)), (factors, junctions))
        if hasattr(node, "_text"):
            return node
        return node._named(operands, ["/" if j is None else "/" + _label_set(j) for j in steps])


class Union(_Nary):
    __slots__ = __match_args__ = ("operands",)
    _prec = 0
    _op = "|"


class Conj(_Nary):
    __slots__ = __match_args__ = ("operands",)
    _prec = 1
    _op = "&"


class BranchR(_Node):
    """`main[test]`: keep main pairs whose target has an outgoing test path."""

    __slots__ = __match_args__ = _kids = ("main", "test")
    _prec = 3

    def __new__(cls, main: PathExpr, test: PathExpr):
        return _intern((cls, id(main), id(test)), (main, test))


class BranchL(_Node):
    """`[test]main`: keep main pairs whose source has an outgoing test path."""

    __slots__ = __match_args__ = _kids = ("test", "main")
    _prec = 3

    def __new__(cls, test: PathExpr, main: PathExpr):
        return _intern((cls, id(test), id(main)), (test, main))


class TransClos(_Node):
    __slots__ = __match_args__ = _kids = ("inner",)
    _prec = 4

    def __new__(cls, inner: PathExpr):
        return _intern((cls, id(inner)), (inner,))


class Repeat(_Node):
    """Bounded repetition `e{m,n}`, pure sugar for a union of compositions."""

    __slots__ = __match_args__ = ("inner", "lo", "hi")
    _kids = ("inner",)
    _prec = 4

    def __new__(cls, inner: PathExpr, lo: int, hi: int):
        if not (1 <= lo <= hi):
            raise ValueError(f"repeat bounds must satisfy 1 <= m <= n, got {{{lo},{hi}}}")
        return _intern((cls, id(inner), lo, hi), (inner, lo, hi))


PathExpr = Label | Reverse | Concat | Union | Conj | BranchR | BranchL | TransClos | Repeat


def _label_set(labels: frozenset[str]) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


def to_text(expr: PathExpr) -> str:
    """Canonical concrete syntax; `parse_path_expr(to_text(e)) is e` holds."""
    return _render(expr, 0)


def _render(expr: PathExpr, min_prec: int) -> str:
    # the text without outer parentheses is rendered once per node; the
    # recursion stays at two frames per tree level, this one and _render_raw
    try:
        text = expr._text
    except AttributeError:
        text = _render_raw(expr)
        object.__setattr__(expr, "_text", text)
    if min_prec and expr._prec < min_prec:
        return "(" + text + ")"
    return text


def _render_raw(expr: PathExpr) -> str:
    if isinstance(expr, Label):
        return expr.name
    if isinstance(expr, Reverse):
        return "-" + expr.name
    if isinstance(expr, TransClos):
        return _render(expr.inner, expr._prec) + "+"
    if isinstance(expr, Repeat):
        return _render(expr.inner, expr._prec) + "{%d,%d}" % (expr.lo, expr.hi)
    if isinstance(expr, BranchR):
        # a main that is itself a left branch would re-parse with the wrong
        # nesting, so it always gets parentheses
        if isinstance(expr.main, BranchL):
            main = "(" + _render(expr.main, 0) + ")"
        else:
            main = _render(expr.main, expr._prec)
        return main + "[" + _render(expr.test, 0) + "]"
    if isinstance(expr, BranchL):
        return "[" + _render(expr.test, 0) + "]" + _render(expr.main, expr._prec)
    # an n-ary node gets its text when it is built
    raise TypeError(f"not a path expression: {expr!r}")


def children(expr: PathExpr) -> tuple[PathExpr, ...]:
    if isinstance(expr, _Nary):
        return getattr(expr, expr.__match_args__[0])
    # unrolled: a comprehension would cost a frame per call, leaves included
    kids = expr._kids
    if not kids:
        return ()
    if len(kids) == 1:
        return (getattr(expr, kids[0]),)
    return (getattr(expr, kids[0]), getattr(expr, kids[1]))


def walk(expr: PathExpr) -> Iterator[PathExpr]:
    """All subexpressions, the node itself included, in pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def map_children(expr: PathExpr, f: Callable[[PathExpr], PathExpr]) -> PathExpr:
    """The node rebuilt with `f` applied to each child, in `children` order.

    A node whose children `f` all returns as they are (`is`), a leaf
    included, comes back itself; anything other than a path expression
    raises TypeError.
    """
    # f is called from this frame, so a recursive rewrite through here nests
    # two frames per tree level; a helper or comprehension that called f
    # would add a third and cut the depth that fits under the recursion limit
    if isinstance(expr, _Nary):
        # nodes are equal only when identical, so == compares pointers
        operands = getattr(expr, expr.__match_args__[0])
        new = tuple(map(f, operands))
        return expr if new == operands else expr.chain(new, *expr._values()[1:])
    try:
        kids = expr._kids
    except AttributeError:
        raise TypeError(f"not a path expression: {expr!r}") from None
    if not kids:
        return expr
    # the children lead the constructor's fields; the other fields carry over
    first = getattr(expr, kids[0])
    new_first = f(first)
    if len(kids) == 1:
        if new_first is first:
            return expr
        return type(expr)(new_first, *expr._values()[1:])
    second = getattr(expr, kids[1])
    new_second = f(second)
    if new_first is first and new_second is second:
        return expr
    return type(expr)(new_first, new_second, *expr._values()[2:])


def desugar(expr: PathExpr) -> PathExpr:
    """Expand every bounded repetition into a union of compositions.

    e{m,n} becomes the union e^m | e^(m+1) | ... | e^n, e.g. a{2,3} ->
    a/a|a/a/a; e^m is one chain of m factors and each later power the chain
    of the one before and e, so no power below e^m is built. A repetition
    whose expansion would hold more than MAX_EXPANSION factors raises
    ValueError before anything is built: e{m,n} holds m + ... + n times the
    factors of e's own expansion, so the bound covers nested repetitions too.
    """
    if isinstance(expr, Repeat):
        expansion(expr)
        return _expand(expr)
    return map_children(expr, desugar)


def unroll_powers(expr: PathExpr) -> PathExpr:
    """Write every fixed power e{m,m} as its chain e^m, and keep each range
    e{m,n}, m < n, one node around its unrolled body: the form inference
    reads. An expression without a range unrolls as `desugar` expands it,
    and past MAX_EXPANSION factors, a range counting one, it raises
    ValueError the same way."""
    expansion(expr, unroll_ranges=False)
    return _unroll(expr)


def expansion(expr: PathExpr, unroll_ranges: bool = True) -> int:
    """The factors the expansion of ``expr`` holds: one for a label, m + ...
    + n times its body's for a repetition e{m,n}, and the sum of its
    children's for any other node. The innermost repetition past
    MAX_EXPANSION raises ValueError.

    With ``unroll_ranges`` false, it counts what `unroll_powers` and SQL
    emission expand: only a fixed power e{m,m}, into the chain of m copies
    of e, while a range e{m,n}, m < n, is one factor once its body is
    counted."""
    kids = children(expr)
    if not kids:
        return 1
    size = sum(expansion(kid, unroll_ranges) for kid in kids)
    if isinstance(expr, Repeat):
        lo, hi = expr.lo, expr.hi
        if lo < hi and not unroll_ranges:
            return 1
        size *= (hi * (hi + 1) - lo * (lo - 1)) // 2
        if size > MAX_EXPANSION:
            raise ValueError(
                f"repetition {to_text(expr)} expands to {size} factors, more than {MAX_EXPANSION}"
            )
    return size


def _expand(expr: PathExpr) -> PathExpr:
    """``desugar`` of an expression whose expansion is already bounded."""
    if isinstance(expr, Repeat):
        return powers(expr, _expand(expr.inner))
    return map_children(expr, _expand)


def _unroll(expr: PathExpr) -> PathExpr:
    """``unroll_powers`` of an expression whose expansion is already bounded."""
    if isinstance(expr, Repeat) and expr.lo == expr.hi:
        return powers(expr, _unroll(expr.inner))
    return map_children(expr, _unroll)


def powers(expr: Repeat, inner: PathExpr) -> PathExpr:
    """e^m | ... | e^n for e{m,n} whose body e is written ``inner``: the
    one rule for a fixed power e{m,m}, which is the chain e^m."""
    lo, hi = expr.lo, expr.hi
    powers = [Concat.chain([inner] * lo, [None] * (lo - 1))]
    while len(powers) <= hi - lo:
        powers.append(Concat(powers[-1], inner))
    return Union.chain(powers)


def strip_annotations(expr: PathExpr) -> PathExpr:
    """The plain expression underlying an annotated one, computed once per node."""
    try:
        plain = expr._plain
    except AttributeError:
        if isinstance(expr, Concat):
            plain = Concat.chain(map(strip_annotations, expr.factors), (None,) * len(expr.junctions))
        else:
            plain = map_children(expr, strip_annotations)
        object.__setattr__(expr, "_plain", None if plain is expr else plain)
        return plain
    return expr if plain is None else plain


def has_annotations(expr: PathExpr) -> bool:
    # an annotated node's plain form is a new node; the form is cached, so
    # asking again about a node or its subtrees walks nothing
    return strip_annotations(expr) is not expr

