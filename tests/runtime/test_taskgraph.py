"""Task-graph backend: planner determinism, SCC properties, chaos.

Three layers, mirroring the subsystem's structure:

* **graph algorithms** — property tests of the iterative Tarjan SCC and
  the condensation against a brute-force reachability checker on random
  digraphs (no hand-picked fixtures: the adversary is the seed);
* **plan construction** — the lowering of a *real* generated node
  program must be deterministic (stable unit ids and ``topo_hash``),
  must segment rather than degrade, and must honor the integer-set
  dependence hints; non-generated sources degrade to the trivial plan;
* **execution** — results bitwise-identical to ``threads``, scheduler
  counters surfaced through ``RunStatistics``, and a chaos matrix:
  every injected fault yields the documented typed error with zero
  leaked worker threads, with warnings escalated to errors.
"""

import ast
import collections
import random
import re
import threading
import time
import warnings

import numpy as np
import pytest

from repro import compile_program, run_compiled
from repro.programs import gauss, widehalo
from repro.runtime import (
    FaultPlan,
    LaunchSpec,
    RankBindings,
    RankCrashError,
    RecvTimeoutError,
    RuntimeOptions,
    get_backend,
    is_transient,
)
from repro.runtime.harness import build_launch_spec, independent_arrays
from repro.runtime.taskgraph import lower
from repro.runtime.taskgraph import (
    build_task_plan,
    condense,
    tarjan_scc,
    trivial_plan,
)

# ---------------------------------------------------------------------------
# graph algorithms vs brute force
# ---------------------------------------------------------------------------


def _random_digraph(rng, n, p):
    return [
        [v for v in range(n) if v != u and rng.random() < p]
        for u in range(n)
    ]


def _brute_sccs(n, adj):
    """SCCs via pairwise reachability (O(n^3), fine for n <= 12)."""
    reach = [set() for _ in range(n)]
    for u in range(n):
        stack, seen = [u], {u}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[u] = seen
    comps, assigned = [], set()
    for u in range(n):
        if u in assigned:
            continue
        comp = frozenset(
            v for v in range(n) if v in reach[u] and u in reach[v]
        )
        assigned |= comp
        comps.append(comp)
    return set(comps)


def _brute_in_cycle(n, adj):
    """Vertices on some directed cycle (self-loops included)."""
    on_cycle = set()
    for u in range(n):
        stack, seen = list(adj[u]), set(adj[u])
        while stack:
            v = stack.pop()
            if v == u:
                on_cycle.add(u)
                break
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return on_cycle


class TestGraphAlgorithms:
    def test_tarjan_matches_brute_force_on_random_digraphs(self):
        rng = random.Random(1729)
        for trial in range(60):
            n = rng.randint(1, 12)
            adj = _random_digraph(rng, n, rng.choice((0.1, 0.25, 0.5)))
            got = {frozenset(c) for c in tarjan_scc(n, adj)}
            want = _brute_sccs(n, adj)
            assert got == want, f"trial {trial}: {adj}"

    def test_tarjan_cycle_members_match_brute_force(self):
        rng = random.Random(4104)
        for _ in range(40):
            n = rng.randint(2, 10)
            adj = _random_digraph(rng, n, 0.3)
            in_cycle = {
                v
                for comp in tarjan_scc(n, adj)
                for v in comp
                if len(comp) > 1
            }
            # tarjan_scc ignores self-loops (a 1-SCC), so compare on the
            # multi-vertex cycles only.
            want = {
                v
                for v in _brute_in_cycle(n, adj)
                if any(
                    v in c and len(c) > 1 for c in _brute_sccs(n, adj)
                )
            }
            assert in_cycle == want

    def test_condensation_is_forward_topological(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 12)
            adj = _random_digraph(rng, n, 0.3)
            comp_of, members, comp_adj = condense(n, adj)
            # membership consistent
            for cid, comp in enumerate(members):
                for v in comp:
                    assert comp_of[v] == cid
            assert sorted(v for c in members for v in c) == list(range(n))
            # the condensation is a DAG numbered in execution order:
            # every edge goes from a lower to a strictly higher id
            for u, succs in enumerate(comp_adj):
                for v in succs:
                    assert u < v


# ---------------------------------------------------------------------------
# plan construction on real generated programs
# ---------------------------------------------------------------------------

TWOFIELD = """
program twofield
  parameter n
  real a(n), b(n), c(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  align c(i) with t(i)
  distribute t(block) onto p

  do i = 1, 8
    a(i) = i * 0.5
  end do
  do i = 2, n
    c(i) = b(i-1) * 2.0
  end do
  do i = 9, n
    a(i) = i * 0.25
  end do
end
"""


@pytest.fixture(scope="module")
def gauss_spec():
    compiled = compile_program(gauss())
    spec = build_launch_spec(
        compiled, {"n": 11}, 4, RuntimeOptions()
    )
    return compiled, spec


class TestPlanConstruction:
    def test_non_generated_source_degrades_to_trivial_plan(self):
        bindings = [
            RankBindings(rank, {}, {}, {}, [], {}) for rank in range(3)
        ]
        plan = build_task_plan("def node_main(rt):\n    pass\n", bindings)
        assert len(plan.units) == 3
        assert all(u.kind == "call" for u in plan.units)
        assert plan.notes == ["not a generated node program"]
        assert plan.topo_hash() == trivial_plan(3, plan.notes[0]).topo_hash()

    def test_generated_program_is_segmented_not_trivial(self, gauss_spec):
        _compiled, spec = gauss_spec
        plan = build_task_plan(spec.source, spec.bindings)
        assert not plan.notes, plan.notes
        assert len(plan.units) > spec.nprocs
        kinds = {u.kind for u in plan.units}
        assert "send" in kinds and "recv" in kinds and "compute" in kinds
        # gauss's pivot loop contains communication: it must unroll
        assert plan.loops_unrolled >= 1
        assert max(u.instance for u in plan.units) > 0

    def test_plan_construction_is_deterministic(self, gauss_spec):
        _compiled, spec = gauss_spec
        first = build_task_plan(spec.source, spec.bindings)
        second = build_task_plan(spec.source, spec.bindings)
        assert first.topo_hash() == second.topo_hash()
        assert [
            (u.uid, u.rank, u.kind, u.label, u.instance, u.template, u.scc)
            for u in first.units
        ] == [
            (u.uid, u.rank, u.kind, u.label, u.instance, u.template, u.scc)
            for u in second.units
        ]
        assert first.edges == second.edges

    def test_build_time_invariants_match_the_edge_list(self, gauss_spec):
        """What the scheduler reads off the plan (instead of recomputing
        per launch) agrees with the edge list it was derived from."""
        _compiled, spec = gauss_spec
        plan = build_task_plan(spec.source, spec.bindings)
        n = len(plan.units)
        succs = plan.successors()
        assert sorted(
            (u, v) for u in range(n) for v in succs[u]
        ) == sorted(plan.edges)
        indeg = plan.indegrees()
        assert sum(indeg) == len(plan.edges)
        indeg[0] += 1  # a caller's copy to count down, not the plan's
        assert plan.indegrees()[0] == indeg[0] - 1
        position = {uid: k for k, uid in enumerate(plan.topo_order)}
        assert sorted(position) == list(range(n))
        assert all(position[u] < position[v] for u, v in plan.edges)
        renumbered = [
            [position[v] for v in succs[uid]] for uid in plan.topo_order
        ]
        depth = [1] * n  # units on the longest chain ending at each
        for u in range(n):
            for v in renumbered[u]:
                depth[v] = max(depth[v], depth[u] + 1)
        assert plan.critical_path_units == max(depth, default=0)
        comm = ("send", "recv", "mixed", "collective")
        for unit in plan.units:
            dist = plan.comm_distance[unit.uid]
            if unit.kind in comm:
                assert dist == 0
            elif succs[unit.uid]:
                nearest = min(plan.comm_distance[v] for v in succs[unit.uid])
                assert dist == min(nearest + 1, n + 1)
            else:
                assert dist == n + 1
        sends = {
            (u.tag, u.instance) for u in plan.units if u.kind == "send"
        }
        assert plan.gated == {
            u.uid for u in plan.units
            if u.kind == "recv" and (u.tag, u.instance) in sends
        }
        assert plan.gated and not plan.needs_rank_parallel_pool
        assert trivial_plan(2, "why").needs_rank_parallel_pool

    def test_scc_condensation_collapses_comm_cycles(self, gauss_spec):
        _compiled, spec = gauss_spec
        plan = build_task_plan(spec.source, spec.bindings)
        # loop-carried template edges close compute->send->recv->compute
        # cycles; the condensation must have collapsed at least one and
        # stamped every unit with its component
        assert plan.cycles_collapsed >= 1
        assert plan.scc_count >= 1
        assert all(u.scc >= 0 for u in plan.units)
        assert len(plan.scc_members) == plan.scc_count

    def test_integer_sets_prove_disjoint_regions_independent(self):
        compiled = compile_program(TWOFIELD)
        hints = independent_arrays(compiled)
        assert "a" in hints  # two nests write provably disjoint halves
        assert "b" not in hints  # read-only arrays are never hinted

    def test_dep_hints_drop_compute_compute_edges(self):
        # Hand-written generated-marker fixture: two plain statements
        # conflicting *only* through array 'a', kept apart by a collective
        # (plain runs merge, so adjacent statements cannot show this).
        fixture = (
            '"""Generated SPMD node program (hand-written fixture)."""\n'
            "\n"
            "def proc_main(rt):\n"
            '    a = rt.arrays["a"]\n'
            "    a[0] = 1.0\n"
            "    rt.allreduce('+', 0.0)\n"
            "    a[1] = a[0] + 1.0\n"
            "\n"
            "def node_main(rt):\n"
            "    proc_main(rt)\n"
        )
        bindings = [
            RankBindings(rank, {}, {"a": (2,)}, {}, [], {})
            for rank in range(2)
        ]
        without = build_task_plan(fixture, bindings)
        with_hints = build_task_plan(fixture, bindings, dep_hints=("a",))
        assert not without.notes and not with_hints.notes
        assert len(with_hints.edges) < len(without.edges)

    def test_dependent_array_is_not_hinted(self, gauss_spec):
        compiled, _spec = gauss_spec
        # gauss's pivot-row flow dependence must keep 'a' out of the hints
        assert "a" not in independent_arrays(compiled)


#: widehalo (n = m = 24, niter = 2) on 2 ranks: unit count, kind and tag
#: multisets, recorded when codegen still wrote its event inline at each
#: of the 23 anchors.  Inlining the one ``_ev_*`` function must give
#: back exactly this plan.
WIDEHALO_INLINE_PLAN = (
    32,
    {"admin": 2, "compute": 22, "recv": 4, "send": 4},
    {"": 24, "main_ev0s": 8},
)


def _plan_shape(plan):
    return (
        len(plan.units),
        dict(collections.Counter(u.kind for u in plan.units)),
        dict(collections.Counter(u.tag for u in plan.units)),
    )


@pytest.fixture(scope="module")
def widehalo_spec():
    compiled = compile_program(widehalo())
    return build_launch_spec(
        compiled, {"n": 24, "m": 24, "niter": 2}, 2, RuntimeOptions()
    )


class TestEventInlining:
    def test_inlined_plan_equals_the_inline_emission_plan(
        self, widehalo_spec
    ):
        plan = build_task_plan(widehalo_spec.source, widehalo_spec.bindings)
        assert plan.notes == []
        assert _plan_shape(plan) == WIDEHALO_INLINE_PLAN

    def test_every_site_shares_the_function_body(self, widehalo_spec):
        """By reference, not by copy: the segment text cache is keyed by
        statement identity, so a copy per site would unparse 23 times."""
        tree = ast.parse(widehalo_spec.source)
        fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        (event,) = [fns[name] for name in fns if name.startswith("_ev_")]
        inlined = [
            stmt
            for top in lower._inline_events(fns["proc_main"].body, fns, "rt")
            for stmt in ast.walk(top)
            if isinstance(stmt, ast.stmt)
        ]
        first = event.body[0]
        assert sum(stmt is first for stmt in inlined) == 23
        assert not any(
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and getattr(stmt.value.func, "id", "").startswith("_ev_")
            for stmt in inlined
        )

    def test_mismatched_event_call_degrades_with_a_note(
        self, widehalo_spec
    ):
        source = widehalo_spec.source
        call = re.search(r"_ev_main_ev0\(rt, (\w+), (\w+)", source)
        first, second = call.group(1), call.group(2)
        broken = source.replace(
            call.group(0), f"_ev_main_ev0(rt, {second}, {first}", 1
        )
        plan = build_task_plan(broken, widehalo_spec.bindings)
        assert len(plan.units) == widehalo_spec.nprocs
        assert len(plan.notes) == 1
        assert plan.notes[0].startswith("cannot inline _ev_main_ev0")

    def test_a_broken_inliner_changes_the_plan(
        self, widehalo_spec, monkeypatch
    ):
        """Without inlining, each event call is one opaque unit: the
        shape test above would fail."""
        monkeypatch.setattr(
            lower, "_inline_events", lambda stmts, fns, rt_name: stmts
        )
        plan = build_task_plan(widehalo_spec.source, widehalo_spec.bindings)
        assert _plan_shape(plan) != WIDEHALO_INLINE_PLAN
        assert "call" in {u.kind for u in plan.units}


# ---------------------------------------------------------------------------
# execution: identity with threads, scheduler observability
# ---------------------------------------------------------------------------


class TestExecution:
    def test_bitwise_identical_to_threads(self):
        compiled = compile_program(gauss())
        for nprocs in (1, 2, 4):
            ref = run_compiled(
                compiled, params={"n": 11}, nprocs=nprocs,
                backend="threads",
            )
            got = run_compiled(
                compiled, params={"n": 11}, nprocs=nprocs,
                backend="taskgraph",
            )
            for r_ref, r_got in zip(ref.results, got.results):
                assert set(r_ref.arrays) == set(r_got.arrays)
                for name, array in r_ref.arrays.items():
                    assert np.array_equal(array, r_got.arrays[name]), (
                        f"nprocs={nprocs} rank={r_ref.rank} array={name}"
                    )
                assert r_ref.scalars == r_got.scalars

    def test_scheduler_counters_in_run_statistics(self):
        compiled = compile_program(gauss())
        outcome = run_compiled(
            compiled, params={"n": 11}, nprocs=2, backend="taskgraph",
        )
        report = outcome.stats.scheduler
        assert report is not None
        assert report["executed"] == report["units"] > 2
        assert report["workers"] >= 2
        assert report["critical_path_units"] >= 1
        assert report["topo_hash"]
        assert report["plan"]["templates"] >= 1
        assert report["plan_build_s"] >= 0.0
        # the same launch twice builds the same graph (stable hash)
        again = run_compiled(
            compiled, params={"n": 11}, nprocs=2, backend="taskgraph",
        )
        assert again.stats.scheduler["topo_hash"] == report["topo_hash"]
        # other backends carry no scheduler block
        plain = run_compiled(
            compiled, params={"n": 11}, nprocs=2, backend="threads",
        )
        assert plain.stats.scheduler is None

    def test_back_to_back_launches_of_one_artifact(self, gauss_spec):
        """A re-launch reuses the cached plan and code objects: same
        graph as a freshly built plan, same bits, same traffic."""
        compiled, spec = gauss_spec
        spec.dep_hints = independent_arrays(compiled)
        backend = get_backend("taskgraph")
        first, second = backend.launch(spec), backend.launch(spec)
        fresh = build_task_plan(
            spec.source, spec.bindings, dep_hints=spec.dep_hints
        )
        assert (
            first.scheduler["topo_hash"]
            == second.scheduler["topo_hash"]
            == fresh.topo_hash()
        )
        assert second.scheduler["executed"] == len(fresh.units)
        assert (
            second.scheduler["critical_path_units"]
            == fresh.critical_path_units
        )
        for got, want in zip(second.results, first.results):
            assert got.arrays["a"].any()
            for name, array in want.arrays.items():
                assert np.array_equal(got.arrays[name], array)
            assert got.trace.bytes_sent == want.trace.bytes_sent
        assert sum(r.trace.bytes_sent for r in first.results) > 0


# ---------------------------------------------------------------------------
# chaos: typed errors, no leaked workers, -W error clean
# ---------------------------------------------------------------------------

ROUNDTRIP = """
def node_main(rt):
    a = rt.arrays["a"]
    if rt.rank == 0:
        a[1:3] = [1.0, 2.0]
        rt.send_section(1, "t", "a", [("S", ((1, 2, 1),))])
        rt.recv_section(1, "u", "a", count=1)
        rt.scalars["out"] = a[0]
    elif rt.rank == 1:
        rt.recv_section(0, "t", "a", count=2)
        a[0] = a[1] + a[2]
        rt.send_section(0, "u", "a", [("S", ((0, 1, 1),))])
        rt.scalars["out"] = a[2]
    rt.work(3)
    rt.allreduce("+", 0.0)
"""


def _raw_spec(body, nprocs, plan=None):
    # Every rank gets a zeroed array ``a`` of 3 elements indexed from 0.
    source = "import numpy as np\n\n" + body
    bindings = [
        RankBindings(rank, {}, {"a": (3,)}, {"a": (0,)}, ["out"], {})
        for rank in range(nprocs)
    ]
    options = RuntimeOptions(
        recv_timeout_s=1.0, run_timeout_s=30.0, fault_plan=plan
    )
    return LaunchSpec(nprocs, source, bindings, [], options)


@pytest.fixture
def no_leaked_threads():
    """Every worker thread spawned during the cell must be joined."""
    before = set(threading.enumerate())
    yield
    leaked = []
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [
            t for t in threading.enumerate()
            if t not in before and t.is_alive()
        ]
        if not leaked:
            break
        time.sleep(0.05)
    assert not leaked, f"leaked threads: {[t.name for t in leaked]}"


#: (name, fault text, expected error; None = must succeed cleanly)
CHAOS = [
    ("drop", "drop:rank=0:op=send:n=1", RecvTimeoutError),
    ("crash-recv", "crash:rank=1:op=recv:n=1", RankCrashError),
    ("crash-send", "crash:rank=0:op=send:n=1", RankCrashError),
    ("crash-step", "crash:rank=1:op=step:n=1", RankCrashError),
    ("crash-coll", "crash:rank=1:op=collective:n=1", RankCrashError),
    ("kill", "kill:rank=1:op=recv:n=1", RankCrashError),
    ("delay", "delay:rank=0:op=send:n=1:ms=40", None),
    ("dup", "dup:rank=0:op=send:n=1", None),
    ("jitter", "jitter:ms=3", None),
]


@pytest.mark.parametrize(
    "name,text,expected", CHAOS, ids=[row[0] for row in CHAOS]
)
class TestChaosMatrix:
    def test_cell(self, name, text, expected, no_leaked_threads):
        plan = FaultPlan.parse(text, seed=13)
        spec = _raw_spec(ROUNDTRIP, 2, plan=plan)
        backend = get_backend("taskgraph")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected is None:
                launch = backend.launch(spec)
                scalars = sorted(
                    r.scalars["out"] for r in launch.results
                )
                assert scalars == [2.0, 3.0]
            else:
                with pytest.raises(expected) as info:
                    backend.launch(spec)
                assert is_transient(info.value), name
                assert info.value.diagnostics, name


class TestChaosSegmented:
    """Faults against a real segmented plan, not the trivial fallback."""

    def test_crash_in_segmented_plan(self, gauss_spec, no_leaked_threads):
        compiled, _ = gauss_spec
        plan = FaultPlan.parse("crash:rank=1:op=send:n=1", seed=5)
        spec = build_launch_spec(
            compiled,
            {"n": 11},
            4,
            RuntimeOptions(
                recv_timeout_s=2.0, run_timeout_s=30.0, fault_plan=plan
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankCrashError) as info:
                get_backend("taskgraph").launch(spec)
        assert any(d.rank == 1 for d in info.value.diagnostics)

    def test_supervisor_degrades_to_threads(self, no_leaked_threads):
        """The taskgraph->threads->inproc-seq chain survives a crashy
        primary: the supervisor retries and falls back, and the final
        outcome reports which backend actually ran."""
        from repro.runtime import RetryPolicy

        compiled = compile_program(gauss())
        # the injected crash expires after the first global attempt, so
        # the taskgraph attempt fails and the threads fallback succeeds
        plan = FaultPlan.parse("crash:rank=0:op=send:attempts=1", seed=3)
        outcome = run_compiled(
            compiled,
            params={"n": 11},
            nprocs=2,
            backend="taskgraph",
            runtime_options=RuntimeOptions(
                recv_timeout_s=2.0, run_timeout_s=30.0, fault_plan=plan
            ),
            retry_policy=RetryPolicy(max_attempts=1),
            fallback_backends=("threads", "inproc-seq"),
        )
        assert outcome.backend == "threads"
        assert [a.backend for a in outcome.attempts] == [
            "taskgraph", "threads"
        ]
        assert outcome.attempts[0].outcome == "RankCrashError"
