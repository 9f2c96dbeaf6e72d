"""Property-based tests: the SPMD emitter's scan of a communication side
visits exactly the set.  A side is emitted by ``_BodyEmitter._emit_rows``
(box rows and exact point nests), executed at ground values and compared
with brute force over a small box."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.codegen.pyexpr import PRELUDE, SourceWriter
from repro.codegen.spmd import _BodyEmitter
from repro.isets import (
    Conjunct,
    Constraint,
    IntegerSet,
    LinExpr,
    Space,
    fresh_name,
)
from repro.runtime.sections import disjoint_sections

DIMS = ("x", "y")
BOX = (0, 7)


@st.composite
def bounded_sets(draw):
    conjuncts = []
    for _ in range(draw(st.integers(1, 2))):
        constraints = []
        for dim in DIMS:
            v = LinExpr.var(dim)
            constraints.append(Constraint.geq(v, BOX[0]))
            constraints.append(Constraint.leq(v, BOX[1]))
        wildcards = []
        for _ in range(draw(st.integers(0, 2))):
            cx = draw(st.integers(-2, 2))
            cy = draw(st.integers(-2, 2))
            const = draw(st.integers(-6, 6))
            constraints.append(
                Constraint.geq(LinExpr({"x": cx, "y": cy}, const), 0)
            )
        if draw(st.booleans()):
            modulus = draw(st.integers(2, 3))
            dim = draw(st.sampled_from(DIMS))
            w = fresh_name("h")
            constraints.append(
                Constraint.eq(
                    LinExpr.var(dim),
                    LinExpr.var(w).scaled(modulus)
                    + draw(st.integers(0, 2)),
                )
            )
            wildcards.append(w)
        conjuncts.append(Conjunct(constraints, wildcards))
    return IntegerSet(Space(DIMS), conjuncts)


def brute(subset):
    lo, hi = BOX
    return sorted(
        point
        for point in itertools.product(range(lo, hi + 1), repeat=2)
        if subset.contains(point)
    )


def _run(method, *args):
    """``(rows, points)`` the text ``method`` writes on a bare body
    emitter appends when executed."""
    body = _BodyEmitter.__new__(_BodyEmitter)
    body.w = SourceWriter()
    method(body, *args)
    namespace = {"_r": [], "_p": []}
    exec(PRELUDE, namespace)
    exec(body.w.text(), namespace)
    return namespace["_r"], namespace["_p"]


@settings(max_examples=30, deadline=None)
@given(bounded_sets())
def test_generated_loops_scan_exactly_the_set(subset):
    subset = subset.simplify(full=True)
    rows, points = _run(_BodyEmitter._emit_rows, subset, {})
    shipped = []
    for kind, dims in disjoint_sections(rows, points):
        if kind == "S":
            shipped += itertools.product(
                *(range(start, start + count * step, step)
                  for start, count, step in dims)
            )
        else:
            shipped += zip(*dims)
    assert sorted(shipped) == brute(subset)  # and no duplicate


@settings(max_examples=30, deadline=None)
@given(bounded_sets())
def test_single_conjunct_scan_is_lexicographic(subset):
    # Within one conjunct the point nest appends each point once, in
    # lexicographic order.
    subset = subset.simplify(full=True)
    for conjunct in subset.conjuncts:
        _, points = _run(
            _BodyEmitter._emit_point_nest, conjunct, DIMS, {},
            "_p.append((x, y))",
        )
        assert points == sorted(set(points))
        assert points == brute(IntegerSet(subset.space, [conjunct]))
