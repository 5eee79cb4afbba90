"""Path-expression simplification to a normal form.

Five rewrite rules run to fixpoint, innermost-first with a leftmost
tie-break. Writing `e+` for transitive closure and `main[test]` / `[test]main`
for the branch filters:

  R1  (e+)+          ->  e+
  R2  main[t+]       ->  main[t]        (a branch test is existential, so the
  R4  [t+]main       ->  [t]main         first step of a closed test suffices)
  R3  main[a/b/...]  ->  main[a[b[...]]]
  R5  [a/b/...]main  ->  [a[b[...]]]main

R3 and R5 peel a test's chain head-first, so its leading factor becomes the
outer branch step. They fire only when the chain's last step is plain (no
junction label set), and the head they peel runs to the chain's last
annotated step, if any: `m[a/{X}b/c]` becomes `m[(a/{X}b)[c]]`, and a chain
whose last step is annotated is left alone. A bounded repetition is one
factor.
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


def _apply_root(expr: PathExpr) -> PathExpr | None:
    """One rule application at the root, or None when none matches."""
    if isinstance(expr, TransClos) and isinstance(expr.inner, TransClos):
        return expr.inner  # R1
    if not isinstance(expr, (BranchR, BranchL)):
        return None
    test = expr.test
    if isinstance(test, TransClos):
        test = test.inner  # R2, R4
    elif isinstance(test, Concat) and test.junctions[-1] is None:
        # R3, R5: the head ends after the last annotated step
        factors, junctions = test.factors, test.junctions
        cut = max((i + 1 for i, labels in enumerate(junctions) if labels is not None), default=0)
        head = Concat.chain(factors[: cut + 1], junctions[:cut])
        test = BranchR(head, Concat.chain(factors[cut + 1 :], junctions[cut + 1 :]))
    else:
        return None
    return BranchR(expr.main, test) if isinstance(expr, BranchR) else BranchL(test, expr.main)
