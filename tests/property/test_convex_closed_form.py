"""Property test: the closed-form IsConvex answer against brute force.

``is_convex_1d`` answers TRUE without a query for a rank-1 set that is
one conjunct without wildcards.  Random such sets over ``[i]`` with one
parameter ``n`` must then be intervals for every value of ``n``:
enumerating the members over a box finds no hole.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.isets import (
    Answer,
    Constraint,
    IntegerSet,
    LinExpr,
    enumerate_points,
    is_convex_1d,
)

BOX = (-8, 8)
PARAMS = range(-5, 6)


@st.composite
def interval_sets(draw):
    i = LinExpr.var("i")
    constraints = [Constraint.geq(i, BOX[0]), Constraint.leq(i, BOX[1])]
    for _ in range(draw(st.integers(1, 4))):
        expr = LinExpr(
            {"i": draw(st.integers(-3, 3)), "n": draw(st.integers(-2, 2))},
            draw(st.integers(-6, 6)),
        )
        if draw(st.booleans()):
            constraints.append(Constraint.geq(expr, 0))
        else:
            constraints.append(Constraint.eq(expr, 0))
    return IntegerSet.from_constraints(["i"], constraints)


@settings(max_examples=80, deadline=None)
@given(interval_sets())
def test_closed_form_agrees_with_enumeration(subset):
    assume(len(subset.conjuncts) == 1 and not subset.conjuncts[0].wildcards)
    assert is_convex_1d(subset).answer is Answer.TRUE
    for n in PARAMS:
        members = [i for (i,) in enumerate_points(subset, {"n": n})]
        if members:
            assert members == list(range(members[0], members[-1] + 1))
