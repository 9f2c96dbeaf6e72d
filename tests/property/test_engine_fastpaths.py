"""Property tests for the set-engine fast paths against brute force.

The performance overhaul added pre-tests and reorderings that must never
change any *answer*:

* :func:`repro.isets.omega._quick_feasibility` — the GCD / interval /
  corner-witness emptiness pre-test.  It returns a tri-state; whenever it
  commits to an answer, that answer must match brute-force enumeration.
* ``project_out`` — exact projection in the caller's elimination order.
  The set of points must be identical to brute-force projection.
* :func:`repro.isets.bounds.presolve_constraints` — the
  bounds-propagation presolve.  An ``empty`` verdict, the per-variable
  interval windows, and the pinned values must each agree with brute
  force; ``project_out`` must produce pointwise-identical projections
  whether or not the presolve (and its pin-elimination) runs.
* :func:`repro.isets.bounds.presolve_disjoint` — the cross-conjunct
  disjointness pretest behind the subtraction identity fast path.  A
  ``True`` answer must mean a genuinely empty intersection.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.isets import Conjunct, Constraint, LinExpr
from repro.isets.bounds import presolve_constraints, presolve_disjoint
from repro.isets.errors import InexactOperationError
from repro.isets.omega import (
    _quick_feasibility,
    is_empty_conjunct,
    project_out,
)
from repro.isets.profile import reference_arm

BOX = (-3, 4)


def _box_constraints(dims):
    constraints = []
    for dim in dims:
        v = LinExpr.var(dim)
        constraints.append(Constraint.geq(v, BOX[0]))
        constraints.append(Constraint.leq(v, BOX[1]))
    return constraints


@st.composite
def boxed_conjuncts(draw, dims=("x", "y", "z")):
    """A wildcard-free conjunct whose points all lie in the box."""
    constraints = list(_box_constraints(dims))
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {
            dim: draw(st.integers(-3, 3)) for dim in dims
        }
        expr = LinExpr(coeffs, draw(st.integers(-6, 6)))
        if draw(st.booleans()):
            constraints.append(Constraint.geq(expr, 0))
        else:
            constraints.append(Constraint.eq(expr, 0))
    return Conjunct(constraints, [])


def _points(conjunct, dims=("x", "y", "z")):
    lo, hi = BOX
    found = set()
    for values in itertools.product(range(lo, hi + 1), repeat=len(dims)):
        env = dict(zip(dims, values))
        if all(c.holds(env) for c in conjunct.constraints):
            found.add(values)
    return found


@settings(max_examples=120, deadline=None)
@given(boxed_conjuncts())
def test_quick_feasibility_sound_both_directions(conjunct):
    verdict = _quick_feasibility(conjunct)
    if verdict is None:
        return  # undecided is always allowed
    assert verdict == (not _points(conjunct)), (
        f"pre-test said {'empty' if verdict else 'nonempty'} but brute "
        f"force disagrees for {conjunct}"
    )


@settings(max_examples=120, deadline=None)
@given(boxed_conjuncts())
def test_quick_feasibility_agrees_with_full_test(conjunct):
    verdict = _quick_feasibility(conjunct)
    if verdict is not None:
        assert verdict == is_empty_conjunct(conjunct)


@settings(max_examples=80, deadline=None)
@given(boxed_conjuncts(), st.sampled_from([("y",), ("z",), ("y", "z")]))
def test_projection_matches_brute_force(conjunct, eliminate):
    kept = tuple(d for d in ("x", "y", "z") if d not in eliminate)
    expected = {
        tuple(p[("x", "y", "z").index(d)] for d in kept)
        for p in _points(conjunct)
    }
    try:
        pieces = project_out(conjunct, list(eliminate))
    except InexactOperationError:
        # The exact-elimination iteration cap is a documented engine
        # limit, orthogonal to the projection property under test.
        return
    lo, hi = BOX
    got = set()
    for values in itertools.product(range(lo, hi + 1), repeat=len(kept)):
        env = dict(zip(kept, values))
        if any(
            not is_empty_conjunct(piece.partial_evaluate(env))
            for piece in pieces
        ):
            got.add(values)
    assert got == expected, (
        f"project_out disagrees with brute force eliminating "
        f"{eliminate} from {conjunct}"
    )


@settings(max_examples=150, deadline=None)
@given(boxed_conjuncts())
def test_presolve_sound_both_directions(conjunct):
    result = presolve_constraints(conjunct.constraints)
    points = _points(conjunct)
    if result.empty:
        assert not points, (
            f"presolve declared empty ({result.reason}) but {conjunct} "
            f"contains {sorted(points)[:3]}"
        )
        return
    # Intervals are relaxations: every real point must fit every window,
    # and every pinned variable must take exactly its pinned value.
    for values in points:
        env = dict(zip(("x", "y", "z"), values))
        for var, (lo, hi) in result.intervals.items():
            value = env.get(var)
            if value is None:
                continue
            assert lo is None or value >= lo
            assert hi is None or value <= hi
        for var, pinned in result.pinned.items():
            if var in env:
                assert env[var] == pinned


@settings(max_examples=150, deadline=None)
@given(boxed_conjuncts())
def test_presolve_pins_match_brute_force(conjunct):
    points = _points(conjunct)
    if not points:
        return
    result = presolve_constraints(conjunct.constraints)
    assert not result.empty
    for var, pinned in result.pinned.items():
        slot = ("x", "y", "z").index(var)
        seen = {p[slot] for p in points}
        assert seen == {pinned}, (
            f"presolve pinned {var}={pinned} but brute force finds "
            f"{sorted(seen)} in {conjunct}"
        )


@settings(max_examples=60, deadline=None)
@given(boxed_conjuncts(), st.sampled_from([("y",), ("z",), ("y", "z")]))
def test_project_out_pinning_pointwise_equal(conjunct, eliminate):
    """Pin-aware elimination never changes the projected point set."""
    kept = tuple(d for d in ("x", "y", "z") if d not in eliminate)
    results = []
    for presolve_on in (True, False):
        try:
            if presolve_on:
                pieces = project_out(conjunct, list(eliminate))
            else:
                with reference_arm(presolve_off=True):
                    pieces = project_out(conjunct, list(eliminate))
        except InexactOperationError:
            return
        lo, hi = BOX
        got = set()
        for values in itertools.product(
            range(lo, hi + 1), repeat=len(kept)
        ):
            env = dict(zip(kept, values))
            if any(
                not is_empty_conjunct(piece.partial_evaluate(env))
                for piece in pieces
            ):
                got.add(values)
        results.append(got)
    assert results[0] == results[1], (
        f"project_out differs with presolve on/off eliminating "
        f"{eliminate} from {conjunct}"
    )


@settings(max_examples=150, deadline=None)
@given(boxed_conjuncts(), boxed_conjuncts())
def test_presolve_disjoint_implies_empty_intersection(a, b):
    if not presolve_disjoint(a, b):
        return  # "maybe overlapping" is always allowed
    overlap = _points(a) & _points(b)
    assert not overlap, (
        f"pretest called {a} and {b} disjoint but they share "
        f"{sorted(overlap)[:3]}"
    )
