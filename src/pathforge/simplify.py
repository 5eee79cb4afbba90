"""Path-expression simplification to a normal form.

Five rewrite rules run to fixpoint, innermost-first with a leftmost
tie-break. Writing `e+` for transitive closure and `main[test]` / `[test]main`
for the branch filters:

  R1  (e+)+          ->  e+
  R2  main[t+]       ->  main[t]        (a branch test is existential, so the
  R4  [t+]main       ->  [t]main         first step of a closed test suffices)
  R3  main[a/b/...]  ->  main[a[b[...]]]
  R5  [a/b/...]main  ->  [a[b[...]]]main

R3 and R5 peel composition chains head-first, so the leading factor of the
test becomes the outer branch step. They fire only when the test's top
operator is a plain composition (no junction label set); a junction-annotated
step is left alone, and inside a chain it is one factor, as is a bounded
repetition.
All five rules preserve the evaluated pair set on every database. A test's
own closures are dropped only at the top of the test: a `+` on the main
expression of a branch is never removed, because the main's pairs, not just
their existence, flow into the result.
"""

from __future__ import annotations

from .ast import (
    BranchL,
    BranchR,
    Concat,
    PathExpr,
    TransClos,
    map_children,
)


def simplify(expr: PathExpr) -> PathExpr:
    """Normal form of an expression under rules R1-R5.

    No rule matches a bounded repetition, so it stays as written around
    its simplified body.
    """
    expr = map_children(expr, simplify)
    step = _apply_root(expr)
    # simplify(step) is itself a root where no rule matches
    return expr if step is None else simplify(step)


def _plain_concat(expr: PathExpr) -> bool:
    return isinstance(expr, Concat) and expr.labels is None


def _peel(test: Concat) -> BranchR:
    """`a/b/...` as `a[b/...]`: the leading factor of the plain left spine,
    filtered by the rest, so `(a/b)/c` becomes `a[b/c]`."""
    if not _plain_concat(test.left):
        return BranchR(test.left, test.right)
    head = _peel(test.left)
    return BranchR(head.main, Concat(head.test, test.right))


def _apply_root(expr: PathExpr) -> PathExpr | None:
    """One rule application at the root, or None when none matches."""
    if isinstance(expr, TransClos) and isinstance(expr.inner, TransClos):
        return expr.inner  # R1
    if not isinstance(expr, (BranchR, BranchL)):
        return None
    if isinstance(expr.test, TransClos):
        test = expr.test.inner  # R2, R4
    elif _plain_concat(expr.test):
        test = _peel(expr.test)  # R3, R5
    else:
        return None
    return BranchR(expr.main, test) if isinstance(expr, BranchR) else BranchL(test, expr.main)
