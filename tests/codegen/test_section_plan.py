"""Qualification rules for lowering scan-set conjuncts to box rows.

``_box_row`` decides, per conjunct in stride form, whether the emitter may
write it as one row — per data dim ``(lo, hi, stride)`` under a guard of
the conjunct's dimension-free constraints — or must scan it into an exact
point list with its own loop nest.
"""

from repro.codegen.spmd import _box_row
from repro.isets import Constraint, LinExpr, parse_set
from repro.isets.omega import solve_equalities


def row_of(text):
    subset = parse_set(text)
    (conjunct,) = subset.conjuncts
    if conjunct.wildcards:  # into stride form, as the emitter does
        conjunct = solve_equalities(
            conjunct, set(conjunct.free_variables())
        )
    return _box_row(conjunct, subset.space.in_dims)


def bound_texts(bounds):
    return sorted(str(b.expr) for b in bounds)


class TestQualifies:
    def test_rectangular_nest(self):
        guard, spans = row_of("{[d0,d1] : 1 <= d0 <= n and 2 <= d1 <= m}")
        assert guard == []
        (lo0, hi0, s0, _b0), (lo1, hi1, s1, _b1) = spans
        assert (bound_texts(lo0), bound_texts(hi0), s0) == (["1"], ["n"], 1)
        assert (bound_texts(lo1), bound_texts(hi1), s1) == (["2"], ["m"], 1)

    def test_strided_loop(self):
        _guard, spans = row_of(
            "{[d0] : exists(w : d0 = 4w + p) and 1 <= d0 <= n}"
        )
        ((_lo, _hi, stride, base),) = spans
        assert stride == 4 and base == LinExpr.var("p")

    def test_data_dim_free_outer_guard(self):
        guard, spans = row_of("{[d0] : n >= 3 and 1 <= d0 <= n}")
        assert guard == [Constraint.geq(LinExpr.var("n"), LinExpr.const(3))]
        assert len(spans) == 1


class TestFallsBack:
    def test_triangular_inner_bound(self):
        assert row_of("{[d0,d1] : 1 <= d0 <= n and d0 <= d1 <= n}") is None

    def test_guard_mentioning_data_dim(self):
        # an equality coupling two data dims is neither a guard nor a bound
        assert row_of("{[d0,d1] : 1 <= d0 <= n and d1 = d0}") is None

    def test_interior_guard(self):
        # a divisibility test on two dims would sit inside the nest
        assert row_of(
            "{[d0,d1] : 1 <= d0 <= n and 1 <= d1 <= n and "
            "exists(a : d0 + 2d1 = 3a)}"
        ) is None

    def test_missing_dim(self):
        assert row_of("{[d0,d1] : 1 <= d0 <= n}") is None

    def test_strided_align_base_on_outer_dim(self):
        assert row_of(
            "{[d0,d1] : 1 <= d0 <= n and exists(a : d1 = 2a + d0) "
            "and 1 <= d1 <= n}"
        ) is None
