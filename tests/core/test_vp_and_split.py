"""Unit tests for active-VP sets (Figure 5) and loop splitting (Figure 4)."""

from repro.core.commsets import compute_comm_sets
from repro.core.context import collect_contexts
from repro.core.cp import resolve_cp
from repro.core.events import build_events
from repro.core.loopsplit import compute_split_sets, reference_needs_checks
from repro.core.vp import busy_vp_set, compute_active_vp_sets
from repro.hpf import DataMapping
from repro.isets import enumerate_points, parse_set
from repro.lang import parse_program

GAUSS_FIG5 = """
program gauss
  parameter pivot, np1, np2
  real a(100,100)
  processors pa(np1, np2)
  template t(100,100)
  align a(i,j) with t(i,j)
  distribute t(cyclic, cyclic) onto pa
  do i = pivot + 1, 100
    do j = pivot + 1, 100
      on_home a(i,j)
      a(i,j) = a(i,j) + a(pivot, j)
    end do
  end do
end
"""


def _gauss():
    program = parse_program(GAUSS_FIG5)
    mapping = DataMapping(program)
    contexts = collect_contexts(program, program.main)
    cps = [resolve_cp(mapping, c) for c in contexts]
    events = build_events(mapping, cps)
    return mapping, cps, events


class TestFigure5:
    def test_busy_vp_set(self):
        mapping, cps, events = _gauss()
        busy = busy_vp_set(cps)
        # Paper Fig 5(c): busyVPSet = {[v1,v2] : PIVOT < v1,v2 <= 100},
        # within the template's valid coordinate range.
        expected = parse_set(
            "{[v1,v2] : pivot + 1 <= v1 <= 100 and pivot + 1 <= v2 <= 100 "
            "and 1 <= v1 and 1 <= v2}"
        )
        assert busy.is_equal(expected)

    def test_busy_vp_set_of_no_statements_is_empty(self):
        busy = busy_vp_set([], ("v1", "v2"))
        assert busy.is_empty() and busy.dims == ("v1", "v2")

    def test_busy_vp_set_takes_cp_maps(self):
        mapping, cps, events = _gauss()
        busy = busy_vp_set([cp.cp_map for cp in cps])
        assert busy.is_equal(busy_vp_set(cps))

    def test_active_send_is_pivot_row(self):
        mapping, cps, events = _gauss()
        active = compute_active_vp_sets(events[0].event)
        expected = parse_set(
            "{[v1,v2] : v1 = pivot and 1 <= v1 <= 100 and "
            "pivot + 1 <= v2 <= 100}"
        )
        assert active.active_send_vp.is_equal(expected)

    def test_active_recv_is_busy_set(self):
        mapping, cps, events = _gauss()
        active = compute_active_vp_sets(events[0].event)
        busy = busy_vp_set(cps)
        # within the valid template range they coincide
        valid = parse_set(
            "{[v1,v2] : 1 <= v1 <= 100 and 1 <= v2 <= 100}"
        )
        assert active.active_recv_vp.intersect(valid).is_equal(
            busy.intersect(valid)
        )


SPLIT_STENCIL = """
program st
  real a(100), b(100)
  processors p(4)
  template t(100)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 2, 99
    a(i) = b(i-1) + b(i+1)
  end do
end
"""


class TestFigure4:
    def _split(self):
        program = parse_program(SPLIT_STENCIL)
        mapping = DataMapping(program)
        contexts = collect_contexts(program, program.main)
        cps = [resolve_cp(mapping, c) for c in contexts]
        refs = [r for r in contexts[0].references()]
        return mapping, cps[0], compute_split_sets(
            cps[0], refs, mapping.layouts
        )

    def test_sections_partition_cp_iter_set(self):
        mapping, cp, split = self._split()
        env = {"my_p_0": 1}
        all_points = set(
            enumerate_points(split.cp_iter_set.partial_evaluate(env))
        )
        seen = set()
        for name, section in split.sections():
            pts = set(
                enumerate_points(section.partial_evaluate(env))
            )
            assert not (pts & seen), f"section {name} overlaps"
            seen |= pts
        assert seen == all_points

    def test_local_iters_are_interior(self):
        mapping, cp, split = self._split()
        # proc 1 owns 26..50; boundary iterations 26 and 50 are non-local
        local = enumerate_points(
            split.local_iters.partial_evaluate({"my_p_0": 1})
        )
        assert local == [(i,) for i in range(27, 50)]

    def test_nl_ro_is_boundary(self):
        mapping, cp, split = self._split()
        nl_ro = enumerate_points(
            split.nl_ro_iters.partial_evaluate({"my_p_0": 1})
        )
        assert nl_ro == [(26,), (50,)]

    def test_no_write_sections_for_owner_computes(self):
        mapping, cp, split = self._split()
        assert split.nl_wo_iters.partial_evaluate(
            {"my_p_0": 1}
        ).is_empty()
        assert split.nl_rw_iters.partial_evaluate(
            {"my_p_0": 1}
        ).is_empty()

    def test_splitting_worthwhile(self):
        mapping, cp, split = self._split()
        assert split.is_worthwhile()

    def test_reference_check_elimination(self):
        mapping, cp, split = self._split()
        b_minus = [
            (r, s)
            for r, s in split.local_iters_by_ref
            if not r.is_write and r.subscripts[0].constant == -1
        ][0][0]
        # in the local section no reference needs a buffer check
        assert not reference_needs_checks(
            split, b_minus, split.local_iters
        )
        # in the mixed non-local section, b(i-1) is local for i=50 but
        # non-local for i=26: checks needed
        assert reference_needs_checks(
            split, b_minus, split.nl_ro_iters
        )
