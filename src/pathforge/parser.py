"""Parsers for the textual path-expression and query syntaxes.

Path expression grammar, loosest binding first:

    union    := conj ('|' conj)*
    conj     := concat ('&' concat)*
    concat   := branch (('/' labelset?) branch)*
    branch   := '[' union ']' branch          -- source-side test
              | postfix ('[' union ']')*      -- target-side tests
    postfix  := atom ('+' | '{' INT ',' INT '}')*
    atom     := IDENT | '-' IDENT | '(' union ')'
    labelset := '{' IDENT (',' IDENT)* '}'

Each level is the `_prec` of its operators' node classes in `ast`, and one
precedence-climbing loop, `parse_union`, parses them all. A run of `/`,
`|` or `&` is one n-ary node, whatever its grouping. A `{`
directly after `/` always introduces a junction label set; after a complete
operand it is a bounded repetition. Brackets,
`(` and `[` together, nest at most MAX_NESTING deep; each leading
source-side test counts as one level for what follows it.
Query text is a head variable list, `<-`, then conjuncts joined by `||`,
each a `&&`-separated mix of relation atoms `(x, expr, y)` and label atoms
`x:{A,B}`. The head `EMPTY` body form denotes the query with no
conjuncts at all (it returns nothing on every database).
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, NoReturn, TypeVar

from .ast import (
    IDENTIFIER,
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
)
from .query import Conjunct, LabelAtom, Relation, UcqtQuery, validate_query


# deeper nesting is rejected before the recursive descent here, or the
# recursive passes over the tree after it, can exhaust Python's stack
MAX_NESTING = 100

_T = TypeVar("_T")


class QuerySyntaxError(ValueError):
    """Raised on malformed expression or query text; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>""" + IDENTIFIER + r""")
  | (?P<int>[0-9]+)
  | (?P<arrow><-)
  | (?P<andand>&&)
  | (?P<oror>\|\|)
  | (?P<op>[/|&+\-()\[\]{},:])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup or ""
        if kind != "ws":
            value = match.group()
            tokens.append(_Token(value if kind == "op" else kind, value, pos))
        pos = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# each path-expression operator's node class by the token that starts it
_OPERATORS = {"|": Union, "&": Conj, "/": Concat, "[": BranchR, "+": TransClos, "{": Repeat}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            found = token.text or "end of input"
            raise QuerySyntaxError(f"expected {kind!r}, found {found!r}", token.offset)
        return self.next()

    def fail(self, message: str) -> NoReturn:
        raise QuerySyntaxError(message, self.peek().offset)

    def parse_nested(self, close: str) -> PathExpr:
        """A union between the opening bracket at the cursor and ``close``."""
        token = self.next()
        if self.depth == MAX_NESTING:
            raise QuerySyntaxError(f"brackets nested deeper than {MAX_NESTING}", token.offset)
        self.depth += 1
        expr = self.parse_union()
        self.expect(close)
        self.depth -= 1
        return expr

    # --- path expressions ---

    def parse_union(self, min_prec: int = 0) -> PathExpr:
        """A path expression of operators that bind at ``min_prec`` or tighter."""
        if self.peek().kind == "[":
            test = self.parse_nested("]")
            # the rest of the branch nests inside this BranchL, one level
            # deeper, so a run of leading tests counts toward the cap
            self.depth += 1
            expr = BranchL(test, self.parse_union(BranchL._prec))
            self.depth -= 1
            level = BranchL._prec
        else:
            expr, level = self.parse_atom(), Label._prec
        # precedence climbing: `level` is how tightly what is parsed so far
        # binds, and only an operator no tighter applies to it, so a branch
        # takes no `+` or `{m,n}`
        while True:
            token = self.peek()
            cls = _OPERATORS.get(token.kind)
            if cls is None or not min_prec <= cls._prec <= level:
                return expr
            level = cls._prec
            if cls is BranchR:
                expr = BranchR(expr, self.parse_nested("]"))
            elif cls is TransClos:
                self.next()
                expr = TransClos(expr)
            elif cls is Repeat:
                self.next()
                lo = self.parse_bound()
                self.expect(",")
                hi = self.parse_bound()
                self.expect("}")
                try:
                    expr = Repeat(expr, lo, hi)
                except ValueError as exc:
                    raise QuerySyntaxError(str(exc), token.offset) from exc
            else:
                # a run of one infix operator is one node, built once
                operands, junctions = [expr], []
                while self.peek().kind == token.kind:
                    self.next()
                    if cls is Concat:
                        junctions.append(self.parse_label_set() if self.peek().kind == "{" else None)
                    operands.append(self.parse_union(level + 1))
                expr = Concat.chain(operands, junctions) if cls is Concat else cls.chain(operands)

    def parse_bound(self) -> int:
        token = self.expect("int")
        # `int` refuses a string of more digits than the interpreter's limit
        # (4,300 by default) with a plain ValueError
        try:
            return int(token.text)
        except ValueError:
            raise QuerySyntaxError(
                f"repeat bound of {len(token.text)} digits is too long", token.offset
            ) from None

    def parse_atom(self) -> PathExpr:
        token = self.peek()
        if token.kind == "ident":
            self.next()
            return Label(token.text)
        if token.kind == "-":
            self.next()
            if self.peek().kind != "ident":
                self.fail("reverse applies to a single edge label")
            return Reverse(self.next().text)
        if token.kind == "(":
            return self.parse_nested(")")
        self.fail(f"expected a path expression, found {token.text or 'end of input'!r}")

    def parse_identifiers(self) -> tuple[str, ...]:
        names = [self.expect("ident").text]
        while self.peek().kind == ",":
            self.next()
            names.append(self.expect("ident").text)
        return tuple(names)

    def parse_label_set(self) -> frozenset[str]:
        self.expect("{")
        names = self.parse_identifiers()
        self.expect("}")
        return frozenset(names)

    # --- queries ---

    def parse_query(self) -> UcqtQuery:
        head = self.parse_identifiers()
        self.expect("arrow")
        if self.peek().kind == "ident" and self.peek().text == "EMPTY":
            self.next()
            return UcqtQuery(head=head, disjuncts=())
        disjuncts = [self.parse_conjunct()]
        while self.peek().kind == "oror":
            self.next()
            disjuncts.append(self.parse_conjunct())
        return UcqtQuery(head=head, disjuncts=tuple(disjuncts))

    def parse_conjunct(self) -> Conjunct:
        relations: list[Relation] = []
        labels: dict[str, frozenset[str]] = {}
        while True:
            token = self.peek()
            if token.kind == "(":
                self.next()
                src = self.expect("ident").text
                self.expect(",")
                expr = self.parse_union()
                self.expect(",")
                trg = self.expect("ident").text
                self.expect(")")
                relations.append(Relation(src, expr, trg))
            elif token.kind == "ident":
                self.next()
                self.expect(":")
                names = self.parse_label_set()
                # repeated label atoms on one variable conjoin
                met = labels[token.text] = labels.get(token.text, names) & names
                if not met:
                    raise QuerySyntaxError(f"empty label set on variable {token.text!r}", token.offset)
            else:
                self.fail("expected a relation atom or a label atom")
            if self.peek().kind != "andand":
                break
            self.next()
        label_atoms = tuple(LabelAtom(var, names) for var, names in sorted(labels.items()))
        return Conjunct(relations=tuple(relations), labels=label_atoms)


def _parse_whole(text: str, what: str, parse: Callable[[_Parser], _T]) -> _T:
    if not text.strip():
        raise QuerySyntaxError(f"empty {what}", 0)
    parser = _Parser(text)
    result = parse(parser)
    token = parser.peek()
    if token.kind != "eof":
        raise QuerySyntaxError(f"trailing input {token.text!r}", token.offset)
    return result


def parse_path_expr(text: str) -> PathExpr:
    """Parse one path expression; raises QuerySyntaxError with a byte offset."""
    return _parse_whole(text, "path expression", _Parser.parse_union)


def parse_query(text: str) -> UcqtQuery:
    """Parse one query; raises QuerySyntaxError with a byte offset."""
    query = _parse_whole(text, "query", _Parser.parse_query)
    try:
        validate_query(query)
    except ValueError as exc:
        raise QuerySyntaxError(str(exc), 0) from exc
    return query
