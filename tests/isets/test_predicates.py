"""Unit tests for the §3.3 predicates (IsConvex / IsSingleton / spans)."""

import pytest

from repro.isets import (
    Answer,
    is_convex_1d,
    is_singleton_1d,
    parse_set,
    projection,
    spans_full_range,
)
from repro.isets.errors import SpaceMismatchError
from repro.isets.profile import profiled


class TestIsConvex:
    def test_interval_is_convex(self):
        assert is_convex_1d(parse_set("{[i] : 1 <= i <= 9}")).answer \
            is Answer.TRUE

    def test_hole_is_not_convex(self):
        result = is_convex_1d(
            parse_set("{[i] : 1 <= i <= 3 or 6 <= i <= 9}")
        )
        assert result.answer is Answer.FALSE

    def test_adjacent_union_is_convex(self):
        result = is_convex_1d(
            parse_set("{[i] : 1 <= i <= 4 or 5 <= i <= 9}")
        )
        assert result.answer is Answer.TRUE

    def test_stride_is_not_convex(self):
        result = is_convex_1d(
            parse_set("{[i] : 0 <= i <= 8 and exists(a : i = 2a)}")
        )
        assert result.answer is Answer.FALSE

    def test_singleton_is_convex(self):
        assert is_convex_1d(parse_set("{[i] : i = 4}")).answer is Answer.TRUE

    def test_symbolic_unknown(self):
        result = is_convex_1d(
            parse_set("{[i] : 1 <= i <= n or i = n + 2}")
        )
        assert result.answer is Answer.UNKNOWN
        assert result.violations is not None

    def test_single_wildcard_free_conjunct_skips_the_query(self):
        with profiled() as prof:
            result = is_convex_1d(parse_set("{[i] : 2 <= 3i <= n + 4}"))
        assert result.answer is Answer.TRUE
        assert result.violations.is_empty()
        assert "set.subtract" not in prof.snapshot()["ops"]

    @pytest.mark.parametrize("text", [
        "{[i] : exists(a : i = 2a) and 0 <= i <= n}",
        "{[i] : 1 <= i <= 3 or 6 <= i <= 9}",
    ])
    def test_strides_and_unions_take_the_query(self, text):
        with profiled() as prof:
            result = is_convex_1d(parse_set(text))
        assert result.answer is not Answer.TRUE
        assert prof.snapshot()["ops"]["set.subtract"]["calls"] >= 1

    def test_rank_two_is_rejected(self):
        with pytest.raises(SpaceMismatchError):
            is_convex_1d(parse_set("{[i, j] : 1 <= i <= 9 and j = i}"))

    def test_symbolic_provable(self):
        # Two ranges that always touch: [1,n] ∪ [n,2n] for n >= 1... still
        # convex for every n >= 1, but the sets allow n <= 0 too, where
        # both are empty — also convex.  Provably TRUE.
        result = is_convex_1d(
            parse_set("{[i] : 1 <= i <= n or n <= i <= n + 3}")
        )
        assert result.answer is Answer.TRUE


class TestIsSingleton:
    def test_singleton(self):
        assert is_singleton_1d(parse_set("{[i] : i = 3}")).answer \
            is Answer.TRUE

    def test_pair_is_not(self):
        assert is_singleton_1d(
            parse_set("{[i] : 3 <= i <= 4}")
        ).answer is Answer.FALSE

    def test_empty_is_singleton(self):
        # vacuously: no two distinct members
        assert is_singleton_1d(
            parse_set("{[i] : i >= 1 and i <= 0}")
        ).answer is Answer.TRUE

    def test_symbolic(self):
        result = is_singleton_1d(parse_set("{[i] : n <= i <= m}"))
        assert result.answer is Answer.UNKNOWN


class TestSpansFullRange:
    def test_full(self):
        c = parse_set("{[i] : 1 <= i <= 10}")
        a = parse_set("{[i] : 1 <= i <= 10}")
        assert spans_full_range(c, a).answer is Answer.TRUE

    def test_partial(self):
        c = parse_set("{[i] : 2 <= i <= 10}")
        a = parse_set("{[i] : 1 <= i <= 10}")
        assert spans_full_range(c, a).answer is Answer.FALSE

    def test_symbolic_partial(self):
        c = parse_set("{[i] : p <= i <= 10}")
        a = parse_set("{[i] : 1 <= i <= 10}")
        assert spans_full_range(c, a).answer is Answer.UNKNOWN


def test_projection_helper():
    s = parse_set("{[i,j] : 1 <= i <= 2 and 5 <= j <= 9}")
    p = projection(s, 1)
    assert p.space.arity_in == 1
    assert p.contains((7,)) and not p.contains((4,))
