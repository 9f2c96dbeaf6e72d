"""Unit tests for the execution-backend subsystem.

Backends are driven directly through raw :class:`LaunchSpec` objects with
hand-written node programs, so failure paths (tag mismatch, deadlock,
rank crash) are exercised on *every* backend without paying for a
compile.
"""

import multiprocessing
import os
import time
import typing

import numpy as np
import pytest

from repro.runtime import RankCrashError, RunStatistics
from repro.runtime.backends import (
    ExecutionBackend,
    LaunchSpec,
    RankBindings,
    backend_names,
    get_backend,
    resolve_backend,
)
from repro.runtime.backends.mp import shm_prefix
from repro.runtime.machine import CommunicationError, Machine
from repro.runtime.options import (
    RECV_TIMEOUT_ENV,
    RuntimeOptions,
    default_recv_timeout,
)
from repro.runtime.trace import (
    CollectiveEvent,
    ComputeEvent,
    Event,
    RecvEvent,
    SendEvent,
)

BACKENDS = ("threads", "mp", "inproc-seq")


def _spec(body: str, nprocs: int, recv_timeout_s: float = 2.0) -> LaunchSpec:
    """A launch spec around a hand-written node program."""
    source = "import numpy as np\n\n" + body
    bindings = [
        RankBindings(rank, {}, {}, {}, ["out"], {})
        for rank in range(nprocs)
    ]
    options = RuntimeOptions(
        recv_timeout_s=recv_timeout_s, run_timeout_s=30.0
    )
    return LaunchSpec(nprocs, source, bindings, [], options)


def _shm_segments():
    """This process's mp ring segments (other processes' never count)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    prefix = shm_prefix()
    return {f for f in os.listdir("/dev/shm") if f.startswith(prefix)}


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(BACKENDS) <= set(backend_names())

    def test_unknown_backend_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("nonesuch")
        with pytest.raises(ValueError, match="threads"):
            get_backend("nonesuch")  # message lists what IS registered

    def test_resolve_accepts_instances(self):
        backend = get_backend("threads")
        assert resolve_backend(backend) is backend
        assert resolve_backend("threads").name == "threads"

    def test_backend_instances_report_their_names(self):
        for name in BACKENDS:
            backend = get_backend(name)
            assert isinstance(backend, ExecutionBackend)
            assert backend.name == name


ROUNDTRIP = """
def node_main(rt):
    if rt.rank == 0:
        rt.send(1, "t", [1.0, 2.0], indices=[(1,), (2,)])
        idx, vals = rt.recv(1, "u")
        rt.scalars["out"] = vals[0]
    elif rt.rank == 1:
        idx, vals = rt.recv(0, "t")
        rt.send(0, "u", [vals[0] + vals[1]], indices=[(0,)])
        rt.scalars["out"] = vals[1]
    rt.work(3)
"""

ALLREDUCE = """
def node_main(rt):
    rt.scalars["out"] = rt.allreduce("+", float(rt.rank + 1))
    rt.scalars["out"] += rt.allreduce("max", float(rt.rank))
    rt.barrier()
"""

TAG_MISMATCH = """
def node_main(rt):
    if rt.rank == 0:
        rt.send(1, "a", [1.0])
    else:
        rt.recv(0, "b")
"""

DEADLOCK = """
def node_main(rt):
    if rt.rank == 1:
        rt.recv(0, "never")
"""

CRASH = """
def node_main(rt):
    if rt.rank == 1:
        raise ValueError("boom")
    rt.recv(1, "never-sent")
"""


@pytest.mark.parametrize("backend", BACKENDS + ("taskgraph",))
class TestEveryBackend:
    def test_point_to_point_roundtrip(self, backend):
        launch = get_backend(backend).launch(_spec(ROUNDTRIP, 2))
        assert launch.results[0].scalars["out"] == 3.0
        assert launch.results[1].scalars["out"] == 2.0
        assert launch.results[0].trace.compute_units == 3
        assert len(launch.timings) == 2
        assert all(t.wall_s >= 0.0 for t in launch.timings)

    def test_collectives(self, backend):
        for nprocs in (1, 2, 3, 4):
            launch = get_backend(backend).launch(_spec(ALLREDUCE, nprocs))
            expected = sum(range(1, nprocs + 1)) + (nprocs - 1)
            for result in launch.results:
                assert result.scalars["out"] == expected
                assert result.trace.collectives == 3

    def test_tag_mismatch_surfaces(self, backend):
        with pytest.raises(CommunicationError):
            get_backend(backend).launch(_spec(TAG_MISMATCH, 2, 0.4))

    def test_deadlock_surfaces_not_hangs(self, backend):
        with pytest.raises(CommunicationError):
            get_backend(backend).launch(_spec(DEADLOCK, 2, 0.4))

    def test_rank_crash_surfaces(self, backend):
        """The crash is reported when it happens, not after the
        surviving rank has waited out its receive timeout."""
        start = time.monotonic()
        with pytest.raises(RankCrashError):
            get_backend(backend).launch(_spec(CRASH, 2, 5.0))
        assert time.monotonic() - start < 2.0


RELAUNCH = """
LAUNCHES = 0

def node_main(rt):
    global LAUNCHES
    if rt.rank == 0:
        LAUNCHES += 1
        rt.send(1, "x", [0.1 * (k + 1) for k in range(4)])
    else:
        _, vals = rt.recv(0, "x")  # ordered after rank 0's write
        rt.arrays["a"][:] = np.asarray(vals) / 3.0
    rt.scalars["out"] = float(LAUNCHES)
"""


@pytest.mark.parametrize("backend", BACKENDS + ("taskgraph",))
def test_back_to_back_launches_share_code_not_state(backend):
    """The node module is compiled once and exec'd into a fresh
    namespace per launch (per rank on ``mp``): a second launch computes
    the same bits and sees none of the first one's globals."""
    spec = _spec(RELAUNCH, 2)
    for bindings in spec.bindings:
        bindings.array_shapes["a"] = (4,)
        bindings.array_lbounds["a"] = (1,)
    first, second = (get_backend(backend).launch(spec) for _ in range(2))
    for launch in (first, second):
        assert launch.results[0].scalars["out"] == 1.0
        if backend == "mp":  # a rank is a process: nothing is shared
            assert launch.results[1].scalars["out"] == 0.0
    assert first.results[1].arrays["a"].any()
    for got, want in zip(second.results, first.results):
        assert np.array_equal(got.arrays["a"], want.arrays["a"])
    traffic = [
        RunStatistics.from_traces([r.trace for r in launch.results])
        for launch in (first, second)
    ]
    assert traffic[0].total_bytes == traffic[1].total_bytes > 0


COUNT_MISMATCH = """
def node_main(rt):
    if rt.rank == 0:
        rt.send_section(1, "m", "a", [("S", ((1, 3, 1),))])
    else:
        rt.recv_section(0, "m", "a", count=4)
"""


@pytest.mark.parametrize("backend", BACKENDS + ("taskgraph",))
def test_receiver_rejects_a_message_of_the_wrong_count(backend):
    """Rank 0 ships 3 elements where rank 1 computed 4: a typed error
    naming both counts, well inside the receive timeout, with nothing
    leaked or left running."""
    spec = _spec(COUNT_MISMATCH, 2, recv_timeout_s=5.0)
    for bindings in spec.bindings:
        bindings.array_shapes["a"] = (4,)
        bindings.array_lbounds["a"] = (1,)
    before = _shm_segments()
    start = time.monotonic()
    with pytest.raises(CommunicationError) as info:
        get_backend(backend).launch(spec)
    assert time.monotonic() - start < 2.0
    message = str(info.value)
    assert "rank 1: message 'm' from 0 holds 3 elements, expected 4" in (
        message
    )
    for proc in multiprocessing.active_children():
        proc.join(timeout=5.0)
    assert multiprocessing.active_children() == []
    assert _shm_segments() - before == set()


class TestSequentialDeterminism:
    def test_identical_traces_across_runs(self):
        backend = get_backend("inproc-seq")
        runs = [backend.launch(_spec(ROUNDTRIP, 2)) for _ in range(2)]
        first = [r.trace.events for r in runs[0].results]
        second = [r.trace.events for r in runs[1].results]
        assert first == second


class TestMpTransport:
    def test_large_payload_falls_back_to_pickle(self):
        # a payload bigger than any ring must still arrive intact
        big = """
def node_main(rt):
    n = 200000
    if rt.rank == 0:
        rt.send(1, "big", [float(i) for i in range(n)])
    else:
        _, vals = rt.recv(0, "big")
        rt.scalars["out"] = vals[-1]
"""
        launch = get_backend("mp").launch(_spec(big, 2))
        assert launch.results[1].scalars["out"] == 199999.0

    def test_many_small_messages_reuse_ring(self):
        chatty = """
def node_main(rt):
    other = 1 - rt.rank
    total = 0.0
    for i in range(300):
        rt.send(other, ("m", i), [float(i)] * 64)
        _, vals = rt.recv(other, ("m", i))
        total += vals[0]
    rt.scalars["out"] = total
"""
        launch = get_backend("mp").launch(_spec(chatty, 2))
        assert launch.results[0].scalars["out"] == sum(range(300))

    def test_per_event_timings_recorded(self):
        launch = get_backend("mp").launch(_spec(ROUNDTRIP, 2))
        timing = launch.timings[0]
        assert timing.comm_wall_s > 0.0
        # one send + one recv = two timed communication events
        assert len(timing.per_event_s) == 2


class TestRecvTimeoutConfig:
    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "3.5")
        assert default_recv_timeout() == 3.5
        assert RuntimeOptions().recv_timeout_s == 3.5
        assert Machine(2).recv_timeout_s == 3.5
        assert Machine(2).collective.timeout_s == 3.5

    def test_invalid_env_var_falls_back(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "not-a-number")
        assert default_recv_timeout() == 60.0
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "-1")
        assert default_recv_timeout() == 60.0

    def test_explicit_machine_timeout_wins(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "3.5")
        machine = Machine(2, recv_timeout_s=0.25)
        assert machine.recv_timeout_s == 0.25
        assert machine.collective.timeout_s == 0.25

    def test_collective_timeout_honored(self):
        from repro.runtime.machine import NodeRuntime

        def node(rt):
            if rt.rank == 0:
                rt.allreduce("+", 1.0)  # rank 1 never joins

        def make(rank, machine):
            return NodeRuntime(machine, rank, {}, {}, {}, {})

        with pytest.raises(CommunicationError):
            Machine(2, recv_timeout_s=0.2).run(node, make)


class TestTraceTypes:
    def test_event_is_a_real_union(self):
        members = set(typing.get_args(Event))
        assert members == {
            ComputeEvent, SendEvent, RecvEvent, CollectiveEvent,
        }
