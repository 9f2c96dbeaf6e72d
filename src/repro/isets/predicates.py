"""Set predicates used by the in-place communication analysis (paper §3.3).

The paper reduces the question "is this communication set contiguous in
memory?" to per-dimension predicates, each of which reduces to a
satisfiability test:

* ``IsConvex(S)`` for a rank-1 set ``S``: there is no hole, i.e. the set
  ``{(x,y,z) : x ∈ S, z ∈ S, x < y < z, y ∉ S}`` is empty.  A single
  conjunct without wildcards is an interval and skips the query.
* ``IsSingleton(S)`` for a rank-1 set: ``{(x,y) : x ∈ S, y ∈ S, x < y}`` is
  empty (and the set is nonempty).
* ``SpansFullRange(C, A)`` per dimension: the projections coincide.

Each predicate returns a three-valued answer: when symbolic constants make
the question undecidable at compile time, the *violation set* is returned so
a run-time check can be synthesized from it (Section 3.3's combined
compile-time/run-time algorithm).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .constraint import Constraint
from .errors import SpaceMismatchError
from .linexpr import LinExpr
from .ops import IntegerSet
from .space import Space, fresh_name


class Answer(enum.Enum):
    """Three-valued compile-time answer."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        raise TypeError("Answer is three-valued; compare explicitly")


@dataclass
class PredicateResult:
    """Outcome of a compile-time predicate.

    ``violations`` is the set of parameter-dependent counterexamples; it is
    empty exactly when the predicate is provably TRUE.  When the answer is
    UNKNOWN, a run-time check can test emptiness of ``violations`` under the
    actual parameter values.
    """

    answer: Answer
    violations: Optional[IntegerSet] = None


def _classify(violations: IntegerSet) -> PredicateResult:
    if violations.is_empty():
        return PredicateResult(Answer.TRUE, violations)
    if not violations.parameters():
        return PredicateResult(Answer.FALSE, violations)
    return PredicateResult(Answer.UNKNOWN, violations)


def _renamed_copy(subset: IntegerSet, new_dim: str) -> IntegerSet:
    if subset.space.arity_in != 1:
        raise SpaceMismatchError("predicate requires a rank-1 set")
    old = subset.space.in_dims[0]
    renamed = [
        c.rename_wildcards_apart().rename({old: new_dim})
        for c in subset.conjuncts
    ]
    return IntegerSet(Space([new_dim]), renamed)


def is_convex_1d(subset: IntegerSet) -> PredicateResult:
    """No integer holes between members of a rank-1 set."""
    if subset.space.arity_in != 1:
        raise SpaceMismatchError("predicate requires a rank-1 set")
    if len(subset.conjuncts) == 1 and not subset.conjuncts[0].wildcards:
        # Closed form: affine constraints on one integer variable cut out
        # an interval for every parameter value.
        return PredicateResult(
            Answer.TRUE, IntegerSet.empty(subset.space.in_dims)
        )
    x, y, z = fresh_name("x"), fresh_name("y"), fresh_name("z")
    space = [x, y, z]
    in_x = _embed(subset, space, x)
    in_z = _embed(subset, space, z)
    in_y = _embed(subset, space, y)
    between = IntegerSet.from_constraints(
        space,
        [
            Constraint.lt(LinExpr.var(x), LinExpr.var(y)),
            Constraint.lt(LinExpr.var(y), LinExpr.var(z)),
        ],
    )
    violations = in_x.intersect(in_z).intersect(between).subtract(in_y)
    return _classify(violations)


def is_singleton_1d(subset: IntegerSet) -> PredicateResult:
    """At most one member (two distinct members form a violation)."""
    x, y = fresh_name("x"), fresh_name("y")
    space = [x, y]
    in_x = _embed(subset, space, x)
    in_y = _embed(subset, space, y)
    apart = IntegerSet.from_constraints(
        space, [Constraint.lt(LinExpr.var(x), LinExpr.var(y))]
    )
    violations = in_x.intersect(in_y).intersect(apart)
    return _classify(violations)


def spans_full_range(
    candidate: IntegerSet, full: IntegerSet
) -> PredicateResult:
    """Rank-1 ``candidate`` covers all of rank-1 ``full``."""
    dim = fresh_name("d")
    cand = _renamed_copy(candidate, dim)
    whole = _renamed_copy(full, dim)
    violations = whole.subtract(cand)
    return _classify(violations)


def _embed(subset: IntegerSet, dims, which: str) -> IntegerSet:
    """Rank-1 set reinterpreted over ``dims`` constraining dim ``which``."""
    renamed = _renamed_copy(subset, which)
    return IntegerSet(Space(dims), renamed.conjuncts)


def projection(subset: IntegerSet, dim_index: int) -> IntegerSet:
    """The paper's ``S<i>``: range of the set in dimension ``dim_index``."""
    dims = subset.space.in_dims
    return subset.project_onto([dims[dim_index]])
