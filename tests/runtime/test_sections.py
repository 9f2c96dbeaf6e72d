"""Unit tests for the section-descriptor data plane helpers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.sections import (
    disjoint_sections,
    message_count,
    own_payload,
    pack_sections,
    scatter_sections,
    section_count,
)


def grid(rows=8, cols=8):
    return np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)


class TestCounts:
    def test_slice_section_count(self):
        assert section_count(("S", ((3, 4, 2), (0, 5, 1)))) == 20

    def test_fancy_section_count(self):
        assert section_count(("F", ((1, 2, 5), (0, 0, 3)))) == 3

    def test_message_count_sums_sections(self):
        secs = [("S", ((0, 2, 1),)), ("F", ((4, 6),))]
        assert message_count(secs) == 4


class TestPackScatterRoundtrip:
    @pytest.mark.parametrize(
        "sections",
        [
            [("S", ((2, 5, 1),))],  # contiguous 1-D span
            [("S", ((1, 3, 2),))],  # strided 1-D span
            [("S", ((2, 3, 1), (1, 4, 1)))],  # 2-D block
            [("S", ((1, 3, 2), (0, 4, 2)))],  # 2-D strided lattice
            [("F", ((0, 3, 7), (7, 3, 0)))],  # fancy scatter
            [
                ("S", ((0, 2, 1), (0, 8, 1))),
                ("F", ((5, 6), (1, 2))),
                ("S", ((7, 1, 1), (2, 3, 1))),
            ],  # mixed multi-section message
        ],
    )
    def test_roundtrip(self, sections):
        src = grid()
        dst = np.full_like(src, -1.0)
        one_d = len(sections[0][1]) == 1
        if one_d:
            src = np.arange(16, dtype=np.float64)
            dst = np.full_like(src, -1.0)
        payload, copied, viewed = pack_sections(
            src, (0,) * src.ndim, sections, force_copy=True
        )
        assert payload.flags.c_contiguous and payload.dtype == np.float64
        assert payload.size == message_count(sections)
        assert copied == payload.nbytes and viewed == 0
        consumed = scatter_sections(
            dst, (0,) * dst.ndim, sections, payload
        )
        assert consumed == payload.size
        # Every described element landed; nothing else was touched.
        from repro.runtime.sections import section_view

        for section in sections:
            np.testing.assert_array_equal(
                section_view(dst, (0,) * dst.ndim, section),
                section_view(src, (0,) * src.ndim, section),
            )

    def test_global_coordinates_use_lbounds(self):
        # Sender allocation starts at global index 1, receiver at 3.
        src = np.arange(10, dtype=np.float64)
        dst = np.zeros(10)
        sections = [("S", ((4, 3, 1),))]  # global 4..6
        payload, _, _ = pack_sections(src, (1,), sections, force_copy=True)
        np.testing.assert_array_equal(payload, src[3:6])
        scatter_sections(dst, (3,), sections, payload)
        np.testing.assert_array_equal(dst[1:4], src[3:6])


class TestCopyViewRules:
    def test_single_contiguous_section_is_zero_copy(self):
        src = grid()
        sections = [("S", ((2, 1, 1), (0, 8, 1)))]  # one full row
        payload, copied, viewed = pack_sections(
            src, (0, 0), sections, force_copy=False
        )
        assert np.shares_memory(payload, src)
        assert copied == 0 and viewed == payload.nbytes

    def test_force_copy_snapshots(self):
        src = grid()
        sections = [("S", ((2, 1, 1), (0, 8, 1)))]
        payload, copied, viewed = pack_sections(
            src, (0, 0), sections, force_copy=True
        )
        assert not np.shares_memory(payload, src)
        assert copied == payload.nbytes and viewed == 0
        src[2, :] = -7.0  # sender reuses its buffer: payload unaffected
        assert payload[0] == 16.0

    def test_strided_section_stages_one_copy(self):
        src = grid()
        sections = [("S", ((0, 8, 1), (3, 1, 1)))]  # one column
        payload, copied, viewed = pack_sections(
            src, (0, 0), sections, force_copy=False
        )
        assert not np.shares_memory(payload, src)
        assert copied == payload.nbytes and viewed == 0

    def test_scatter_accepts_readonly_payload(self):
        src = np.arange(8, dtype=np.float64)
        src.flags.writeable = False
        dst = np.zeros(8)
        scatter_sections(dst, (0,), [("S", ((0, 8, 1),))], src)
        np.testing.assert_array_equal(dst, src)


class TestErrors:
    def test_count_payload_mismatch_raises(self):
        dst = np.zeros(8)
        with pytest.raises(ValueError):
            scatter_sections(
                dst, (0,), [("S", ((0, 3, 1),))],
                np.zeros(5, dtype=np.float64),
            )

    def test_out_of_bounds_section_raises(self):
        dst = np.zeros(8)
        with pytest.raises(ValueError):
            scatter_sections(
                dst, (0,), [("S", ((4, 8, 1),))],
                np.zeros(8, dtype=np.float64),
            )


class TestOwnPayload:
    def test_list_is_materialized_once(self):
        payload, copied = own_payload([1.0, 2.0, 3.0])
        assert isinstance(payload, np.ndarray)
        assert payload.dtype == np.float64
        assert copied == 24

    def test_ndarray_is_snapshotted(self):
        values = np.arange(4, dtype=np.float64)
        payload, copied = own_payload(values)
        assert not np.shares_memory(payload, values)
        values[:] = 0.0
        np.testing.assert_array_equal(payload, [0.0, 1.0, 2.0, 3.0])
        assert copied == 32

    def test_generator_accepted(self):
        payload, _ = own_payload(float(i) for i in range(3))
        np.testing.assert_array_equal(payload, [0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Run-time overlap removal
# ---------------------------------------------------------------------------


def _points(sections):
    points = []
    for kind, dims in sections:
        if kind == "S":
            points += itertools.product(
                *(range(start, start + count * step, step)
                  for start, count, step in dims)
            )
        else:
            points += zip(*dims)
    return points


@st.composite
def _rows_and_points(draw):
    ndim = draw(st.integers(1, 3))
    span = st.tuples(
        st.integers(-3, 8), st.integers(-2, 8), st.integers(1, 3)
    ).map(lambda t: (t[0], t[0] + t[1], t[2]))  # may be empty
    rows = draw(st.lists(st.tuples(*[span] * ndim), max_size=5))
    coord = st.integers(-3, 12)
    points = draw(st.lists(st.tuples(*[coord] * ndim), max_size=6))
    return rows, points


@settings(max_examples=300, deadline=None)
@given(_rows_and_points())
def test_disjoint_sections_is_the_exact_disjoint_union(case):
    rows, points = case
    brute = set(points)
    for row in rows:
        brute.update(itertools.product(
            *(range(lo, hi + 1, step) for lo, hi, step in row)
        ))
    sections = disjoint_sections(rows, points)
    got = _points(sections)
    assert set(got) == brute
    assert len(got) == len(brute)  # pieces pairwise disjoint
    assert sum(kind == "F" for kind, _dims in sections) <= 1
    assert disjoint_sections(rows, points, count=True) == message_count(
        sections
    )


class TestDisjointSections:
    def test_equal_strides_subtract_in_closed_form(self):
        sections = disjoint_sections(
            [((1, 5, 1), (1, 5, 1)), ((3, 8, 1), (2, 3, 1))]
        )
        assert [kind for kind, _dims in sections] == ["S", "S"]
        assert message_count(sections) == 31

    def test_unequal_strides_that_meet_become_points(self):
        sections = disjoint_sections([((1, 9, 2),), ((2, 9, 3),)])
        assert sections == [("S", ((1, 5, 2),)), ("F", ((2, 8),))]

    def test_unequal_strides_that_miss_stay_boxes(self):
        sections = disjoint_sections([((1, 9, 2),), ((2, 8, 2),)])
        assert [kind for kind, _dims in sections] == ["S", "S"]

    def test_points_inside_a_box_are_dropped(self):
        sections = disjoint_sections([((0, 4, 1),)], [(2,), (7,), (7,)])
        assert sections == [("S", ((0, 5, 1),)), ("F", ((7,),))]

    def test_repeated_rows_give_one_section(self):
        """A pivot row needed by 24 VPs of one rank is sent once."""
        row = ((5, 5, 1), (6, 48, 1))
        sections = disjoint_sections([row] * 24)
        assert sections == [("S", ((5, 1, 1), (6, 43, 1)))]
        assert disjoint_sections([row] * 24, count=True) == (
            disjoint_sections([row], count=True)
        ) == 43
