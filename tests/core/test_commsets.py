"""Unit tests for the Figure 3 communication-set equations."""

import itertools

import pytest

from repro import compile_program
from repro.core.commsets import compute_comm_sets
from repro.core.context import collect_contexts
from repro.core.cp import resolve_cp
from repro.core.events import build_events
from repro.hpf import DataMapping
from repro.hpf.layout import VP_CYCLIC
from repro.isets import enumerate_points, parse_set
from repro.lang import parse_program
from repro.programs import (
    erlebacher, gauss, jacobi, redblack, tomcatv, widehalo,
)
from repro.runtime.harness import evaluate_bindings, run_compiled
from repro.runtime.trace import SendEvent


def _comm_sets(src):
    program = parse_program(src)
    mapping = DataMapping(program)
    contexts = collect_contexts(program, program.main)
    cps = [resolve_cp(mapping, c) for c in contexts]
    events = build_events(mapping, cps)
    return mapping, [
        (event, compute_comm_sets(event.event)) for event in events
    ]


SHIFT = """
program shift
  real a(100), b(100)
  processors p(4)
  template t(100)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 2, 100
    a(i) = b(i-1)
  end do
end
"""


class TestShiftPattern:
    def test_send_is_boundary_element(self):
        mapping, results = _comm_sets(SHIFT)
        (event, sets), = results
        # proc 1 (owns 26..50) sends b(50) to proc 2
        send = sets.send_comm_map.partial_evaluate({"my_p_0": 1})
        pairs = [
            (p, b)
            for (p,) in enumerate_points(send.domain())
            for (b,) in enumerate_points(
                send.fix_input({send.in_dims[0]: p}).range()
            )
        ]
        assert pairs == [(2, 50)]

    def test_recv_is_neighbor_boundary(self):
        mapping, results = _comm_sets(SHIFT)
        (event, sets), = results
        recv = sets.recv_comm_map.partial_evaluate({"my_p_0": 2})
        points = enumerate_points(recv.range())
        assert points == [(50,)]

    def test_nl_data_set_matches_definition(self):
        mapping, results = _comm_sets(SHIFT)
        (event, sets), = results
        # proc 0 owns 1..25, reads b(1..99) restricted to its iterations:
        # reads b(i-1) for i in 26..50 → wait, proc 0 executes i in 2..25,
        # reading b(1..24): all local → empty for p0; p1 reads b(25) nonloc.
        nl = sets.nl_data_set["read"]
        assert enumerate_points(
            nl.partial_evaluate({"my_p_0": 0})
        ) == []
        assert enumerate_points(
            nl.partial_evaluate({"my_p_0": 1})
        ) == [(25,)]

    def test_first_processor_receives_nothing(self):
        mapping, results = _comm_sets(SHIFT)
        (event, sets), = results
        recv = sets.recv_comm_map.partial_evaluate({"my_p_0": 0})
        assert recv.is_empty()

    def test_last_processor_sends_nothing(self):
        mapping, results = _comm_sets(SHIFT)
        (event, sets), = results
        send = sets.send_comm_map.partial_evaluate({"my_p_0": 3})
        assert send.is_empty()


class TestCoalescedStencil:
    SRC = """
program st
  real a(100), b(100)
  processors p(4)
  template t(100)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 2, 99
    a(i) = b(i-1) + b(i+1) + b(i)
  end do
end
"""

    def test_single_event_both_directions(self):
        mapping, results = _comm_sets(self.SRC)
        assert len(results) == 1
        (event, sets), = results
        send = sets.send_comm_map.partial_evaluate({"my_p_0": 1})
        # proc 1 sends b(26) left and b(50) right
        sent = sorted(
            enumerate_points(send.range())
        )
        assert sent == [(26,), (50,)]

    def test_no_self_communication(self):
        mapping, results = _comm_sets(self.SRC)
        (event, sets), = results
        # The scan map keeps p == my_p pairs (the emitter's rank guard
        # skips them); the exact map can never pair me with myself.
        diagonal = parse_set("{[q] : q = my_p_0}")
        assert not sets.send_scan_map.domain().intersect(diagonal).is_empty()
        send_fixed = sets.send_comm_map.partial_evaluate({"my_p_0": 1})
        partners = enumerate_points(send_fixed.domain())
        assert (1,) not in partners


class TestNonOwnerComputesWrites:
    SRC = """
program w
  real a(100), b(100)
  processors p(4)
  template t(100)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, 99
    on_home b(i)
    a(i+1) = b(i)
  end do
end
"""

    def test_write_updates_flow_to_owner(self):
        mapping, results = _comm_sets(self.SRC)
        (event, sets), = results
        assert event.when == "after"
        # executor of i=25 is owner of b(25) = p0; it writes a(26) owned
        # by p1: p0 sends a(26) to p1.
        send = sets.send_comm_map.partial_evaluate({"my_p_0": 0})
        points = enumerate_points(send.range())
        assert points == [(26,)]
        recv = sets.recv_comm_map.partial_evaluate({"my_p_0": 1})
        assert (26,) in enumerate_points(recv.range())


def _traced_message_elements(compiled, params, nprocs):
    """(tag, me, q) -> elements sent, from an inproc-seq run's traces."""
    outcome = run_compiled(compiled, params, nprocs, backend="inproc-seq")
    counts = {}
    for result in outcome.results:
        for event in result.trace.events:
            if isinstance(event, SendEvent):
                key = (event.tag, result.rank, event.dest)
                counts[key] = counts.get(key, 0) + event.bytes // 8
    return counts


def _owned_vps(layout, env):
    """The (virtual) processor coordinate tuples one rank owns: its own
    coordinate, or on a cyclic VP dim every VP of its residue."""
    per_dim = []
    for name, ownership in zip(layout.grid.my_names, layout.ownerships):
        if ownership is not None and ownership.needs_vp_loops:
            assert ownership.kind == VP_CYCLIC
            per_dim.append(range(
                ownership.template_lb.evaluate(env) + env[name],
                ownership.template_ub.evaluate(env) + 1,
                ownership.proc_count.evaluate(env),
            ))
        else:
            per_dim.append([env[name]])
    return list(itertools.product(*per_dim))


def _exact_message_elements(compiled, params, nprocs, outer):
    """(tag, me, q) -> elements of the union, over every (my VP, partner
    VP) pair ranks ``me != q`` own, of the exact SendCommMap(me) at the
    partner VP, summed over the event's outer-loop iterations (``outer``
    maps each outer symbol to its values)."""
    envs = [
        evaluate_bindings(compiled.mapping, params, nprocs, rank)
        for rank in range(nprocs)
    ]
    counts = {}
    for analysis in compiled.analyses.values():
        for event in analysis.events:
            send = event.sets.send_comm_map
            layout = event.placed.event.layout
            my_names = layout.grid.my_names
            symbols = event.placed.event.outer_symbols
            vps = [_owned_vps(layout, env) for env in envs]
            ranges = {
                vp: send.fix_input(dict(zip(send.in_dims, vp))).range()
                for owned in vps for vp in owned
            }
            for values in itertools.product(*(outer[s] for s in symbols)):
                for me, q in itertools.permutations(range(nprocs), 2):
                    elements = set()
                    for mine in vps[me]:
                        env = {
                            **envs[me], **dict(zip(my_names, mine)),
                            **dict(zip(symbols, values)),
                        }
                        for theirs in vps[q]:
                            elements.update(
                                enumerate_points(ranges[theirs], env)
                            )
                    if elements:
                        key = (f"{event.tag}s", me, q)
                        counts[key] = counts.get(key, 0) + len(elements)
    return counts


@pytest.mark.parametrize(
    "source, params, nprocs, outer",
    [
        (SHIFT, {}, 4, {}),
        (TestCoalescedStencil.SRC, {}, 4, {}),
        (jacobi(), {"n": 16, "niter": 1}, 4, {"iter_cur": [1]}),
        (erlebacher(), {"n": 8, "nz": 16, "niter": 1}, 4,
         {"iter_cur": [1], "k_cur": range(2, 17)}),
        (tomcatv(), {"n": 24, "niter": 1}, 4, {"iter_cur": [1]}),
        (redblack(), {"n": 48, "niter": 1}, 4, {"iter_cur": [1]}),
        (widehalo(), {"n": 24, "m": 24, "niter": 1}, 2, {"iter_cur": [1]}),
        (gauss(), {"n": 24}, 4, {"k_cur": range(1, 24)}),
    ],
    ids=["shift", "stencil", "jacobi", "erlebacher", "tomcatv", "redblack",
         "widehalo", "gauss"],
)
def test_scanned_messages_match_exact_map(source, params, nprocs, outer):
    """Codegen scans the self-inclusive map under a ``q != me`` guard, one
    row per conjunct, and takes the union per physical partner at run
    time; every message it sends must hold exactly the points of the
    exact map, each once (gauss: the pivot row once per rank, not once
    per receiving VP)."""
    compiled = compile_program(source)
    traced = _traced_message_elements(compiled, params, nprocs)
    assert traced
    assert all(me != q for _, me, q in traced)
    assert traced == _exact_message_elements(
        compiled, params, nprocs, outer
    )
