"""Chaos matrix: every injected fault on every backend yields the right
typed error — never a hang, never a leaked process or shm segment, never
a silently wrong answer.

The matrix drives raw :class:`LaunchSpec` objects with hand-written node
programs (no compile cost).  Success cases are cross-checked against a
clean ``inproc-seq`` reference run; failure cases assert the documented
error type *and* its rank-level diagnostics.  Leak checks run after
every ``mp`` cell: no live children, no shared-memory segments left in
``/dev/shm``.
"""

import multiprocessing
import os
import pickle
import warnings

import pytest

from repro.runtime import (
    CommunicationError,
    FaultPlan,
    FaultSpec,
    LaunchError,
    LaunchSpec,
    RankBindings,
    RankCrashError,
    RankDiagnostics,
    RecvTimeoutError,
    ResultDivergenceError,
    RetryPolicy,
    RunTimeoutError,
    RuntimeOptions,
    cross_check_results,
    decode_exitcode,
    get_backend,
    is_transient,
)
from repro.runtime.backends.mp import shm_prefix
from repro.runtime.harness import _supervised_launch

BACKENDS = ("threads", "mp", "inproc-seq")

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
"""

DEADLOCK = """
def node_main(rt):
    if rt.rank == 1:
        rt.recv_section(0, "never", "a")
"""

SLOW_RANK = """
import time

def node_main(rt):
    if rt.rank == 1:
        time.sleep(8.0)
"""


def _spec(
    body,
    nprocs,
    plan=None,
    recv_timeout_s=1.0,
    run_timeout_s=30.0,
):
    # Every rank gets a zeroed array ``a`` of 3 elements indexed from 0.
    source = "import numpy as np\n\n" + body
    bindings = [
        RankBindings(rank, {}, {"a": (3,)}, {"a": (0,)}, ["out"], {})
        for rank in range(nprocs)
    ]
    options = RuntimeOptions(
        recv_timeout_s=recv_timeout_s,
        run_timeout_s=run_timeout_s,
        fault_plan=plan,
    )
    return LaunchSpec(nprocs, source, bindings, [], options)


def _shm_segments():
    """This process's mp ring segments (other processes' never count)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    prefix = shm_prefix()
    return {f for f in os.listdir("/dev/shm") if f.startswith(prefix)}


@pytest.fixture
def leak_check():
    """Assert a cell leaves zero children and zero shm segments behind."""
    before = _shm_segments()
    yield
    for proc in multiprocessing.active_children():
        proc.join(timeout=5.0)
    assert multiprocessing.active_children() == []
    assert _shm_segments() - before == set()


# ---------------------------------------------------------------------------
# The plan itself: parsing, determinism, attempt filtering
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "crash:rank=1:op=send:n=2:attempts=1; jitter:rank=0:ms=5",
            seed=7,
        )
        assert plan.seed == 7
        assert plan.faults == (
            FaultSpec("crash", rank=1, op="send", n=2, attempts=1),
            FaultSpec("jitter", rank=0, delay_ms=5.0),
        )

    def test_parse_rejects_unknown_kind_op_and_fields(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode")
        with pytest.raises(ValueError, match="unknown fault op"):
            FaultPlan.parse("crash:op=think")
        with pytest.raises(ValueError, match="unknown fault field"):
            FaultPlan.parse("crash:when=later")
        with pytest.raises(ValueError, match="only apply to sends"):
            FaultPlan.parse("drop:op=recv")
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan.parse("crash:n=0")

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("kill:rank=2:op=step:n=4", seed=11)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_same_seed_replays_byte_identical_schedules(self):
        text = "jitter:ms=20; delay:rank=0:op=send:n=3:ms=5"
        for rank in range(4):
            first = FaultPlan.parse(text, seed=42).schedule(rank)
            second = FaultPlan.parse(text, seed=42).schedule(rank)
            assert pickle.dumps(first) == pickle.dumps(second)

    def test_different_seeds_give_different_jitter(self):
        a = FaultPlan.parse("jitter:ms=20", seed=1).schedule(0)
        b = FaultPlan.parse("jitter:ms=20", seed=2).schedule(0)
        assert a != b

    def test_for_attempt_expires_transient_faults(self):
        plan = FaultPlan.parse("crash:attempts=2; drop:op=send")
        assert len(plan.for_attempt(0).faults) == 2
        assert len(plan.for_attempt(1).faults) == 2
        survivors = plan.for_attempt(2).faults
        assert [f.kind for f in survivors] == ["drop"]


# ---------------------------------------------------------------------------
# The taxonomy: decoding, transience, rendering, pickling
# ---------------------------------------------------------------------------


class TestTaxonomy:
    def test_decode_exitcodes(self):
        assert decode_exitcode(-9) == "killed by SIGKILL (signal 9)"
        assert decode_exitcode(-15) == "killed by SIGTERM (signal 15)"
        assert decode_exitcode(-127) == "killed by signal 127"
        assert decode_exitcode(3) == "exit code 3"
        assert decode_exitcode(0) == "exit code 0"

    def test_transience_classification(self):
        assert is_transient(RankCrashError("x"))
        assert is_transient(RecvTimeoutError("x"))
        assert is_transient(RunTimeoutError("x"))
        assert is_transient(LaunchError("x"))
        assert not is_transient(ResultDivergenceError("x"))
        assert not is_transient(CommunicationError("tag mismatch"))
        assert not is_transient(ValueError("not ours"))

    def test_every_error_is_a_communication_error(self):
        for cls in (
            RankCrashError,
            RecvTimeoutError,
            RunTimeoutError,
            LaunchError,
            ResultDivergenceError,
        ):
            assert issubclass(cls, CommunicationError)

    def test_crash_report_renders_diagnostics(self):
        err = RankCrashError(
            "rank 1 died",
            diagnostics=[
                RankDiagnostics(
                    rank=1,
                    phase="send",
                    detail="ValueError: boom",
                    trace_tail=["SendEvent(dest=0, ...)"],
                    ring_occupancy={0: 128},
                    exitcode=-9,
                )
            ],
        )
        text = str(err)
        assert "rank 1 [phase=send]" in text
        assert "killed by SIGKILL" in text
        assert "ValueError: boom" in text
        assert "trace tail:" in text
        assert "0→128B" in text

    def test_errors_pickle_with_diagnostics(self):
        err = RecvTimeoutError(
            "timed out",
            diagnostics=[RankDiagnostics(rank=2, phase="recv")],
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, RecvTimeoutError)
        assert clone.diagnostics[0].rank == 2
        assert str(clone) == str(err)


# ---------------------------------------------------------------------------
# The chaos matrix proper
# ---------------------------------------------------------------------------

#: (name, spec text, expected error by backend; None = clean success)
MATRIX = [
    ("drop", "drop:rank=0:op=send:n=1", {b: RecvTimeoutError for b in BACKENDS}),
    ("delay", "delay:rank=0:op=send:n=1:ms=40", {b: None for b in BACKENDS}),
    ("dup", "dup:rank=0:op=send:n=1", {b: None for b in BACKENDS}),
    ("crash-recv", "crash:rank=1:op=recv:n=1", {b: RankCrashError for b in BACKENDS}),
    ("crash-send", "crash:rank=0:op=send:n=1", {b: RankCrashError for b in BACKENDS}),
    ("crash-step", "crash:rank=1:op=step:n=1", {b: RankCrashError for b in BACKENDS}),
    ("crash-coll", "crash:rank=1:op=collective:n=1", {b: RankCrashError for b in BACKENDS}),
    ("kill", "kill:rank=1:op=recv:n=1", {b: RankCrashError for b in BACKENDS}),
    ("jitter", "jitter:ms=3", {b: None for b in BACKENDS}),
    (
        "shm-alloc",
        "shm-alloc",
        {"threads": None, "inproc-seq": None, "mp": LaunchError},
    ),
]

COLLECTIVE_TAIL = """
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


def _cell_spec(plan, want):
    """A cell that ends in a receive timeout waits that timeout out in
    full (the message really is missing), so it gets a short one."""
    return _spec(
        COLLECTIVE_TAIL, 2, plan=plan,
        recv_timeout_s=0.4 if want is RecvTimeoutError else 1.0,
    )


@pytest.fixture(scope="module")
def reference_results():
    """Clean inproc-seq run of the matrix program — the golden answer."""
    launch = get_backend("inproc-seq").launch(_spec(COLLECTIVE_TAIL, 2))
    return launch.results


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name,text,expected", MATRIX, ids=[row[0] for row in MATRIX]
)
class TestChaosMatrix:
    def test_cell(
        self, backend, name, text, expected, reference_results, leak_check
    ):
        plan = FaultPlan.parse(text, seed=13)
        want = expected[backend]
        spec = _cell_spec(plan, want)
        if want is None:
            launch = get_backend(backend).launch(spec)
            # a benign fault must never corrupt results silently
            cross_check_results(
                launch.results, reference_results, context=name
            )
        else:
            with pytest.raises(want) as info:
                get_backend(backend).launch(spec)
            err = info.value
            assert is_transient(err), name
            if want is not LaunchError:
                assert err.diagnostics, f"{name} carried no diagnostics"
                assert all(
                    d.rank in (0, 1) for d in err.diagnostics
                )

    def test_cell_replays_identically(
        self, backend, name, text, expected, reference_results, leak_check
    ):
        """Same seed, same cell → same typed outcome (reproducibility)."""
        if expected[backend] is None:
            pytest.skip("success cells are covered by test_cell")
        plan = FaultPlan.parse(text, seed=13)
        outcomes = []
        for _ in range(2):
            with pytest.raises(expected[backend]):
                get_backend(backend).launch(
                    _cell_spec(plan, expected[backend])
                )
            outcomes.append(expected[backend].__name__)
        assert outcomes[0] == outcomes[1]


class TestKillDecoding:
    def test_mp_kill_reports_signal_name(self, leak_check):
        plan = FaultPlan.parse("kill:rank=1:op=recv:n=1")
        with pytest.raises(RankCrashError) as info:
            get_backend("mp").launch(_spec(ROUNDTRIP, 2, plan=plan))
        message = str(info.value)
        assert "SIGKILL" in message
        assert info.value.diagnostics[0].exitcode == -9

    def test_in_process_kill_degrades_to_crash(self):
        plan = FaultPlan.parse("kill:rank=1:op=recv:n=1")
        for backend in ("threads", "inproc-seq"):
            with pytest.raises(RankCrashError, match="degraded to crash"):
                get_backend(backend).launch(
                    _spec(ROUNDTRIP, 2, plan=plan)
                )


# ---------------------------------------------------------------------------
# Recv-timeout parity across backends (deadlock → RecvTimeoutError)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestRecvTimeoutParity:
    def test_deadlock_raises_typed_timeout_with_diagnostics(
        self, backend, leak_check
    ):
        with pytest.raises(RecvTimeoutError) as info:
            get_backend(backend).launch(
                _spec(DEADLOCK, 2, recv_timeout_s=0.4)
            )
        err = info.value
        assert err.diagnostics, "timeout carried no diagnostics"
        diag = err.diagnostics[0]
        assert diag.rank == 1
        assert diag.phase == "recv"
        assert isinstance(diag.ring_occupancy, dict)
        # the payload renders as a readable report
        assert f"rank {diag.rank} [phase=recv]" in str(err)


class TestRunTimeout:
    @pytest.mark.parametrize("backend", ("threads", "mp"))
    def test_wedged_rank_hits_run_deadline(self, backend, leak_check):
        spec = _spec(
            SLOW_RANK, 2, recv_timeout_s=30.0, run_timeout_s=0.5
        )
        with pytest.raises(RunTimeoutError) as info:
            get_backend(backend).launch(spec)
        assert any(d.rank == 1 for d in info.value.diagnostics)


# ---------------------------------------------------------------------------
# mp cleanup: no leaked processes, queues, or shm on failure paths
# ---------------------------------------------------------------------------


class TestMpCleanup:
    def test_rank_crash_unlinks_shm_and_reaps_children(self):
        before = _shm_segments()
        plan = FaultPlan.parse("crash:rank=1:op=recv:n=1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankCrashError):
                get_backend("mp").launch(_spec(ROUNDTRIP, 2, plan=plan))
        assert multiprocessing.active_children() == []
        assert _shm_segments() - before == set()

    def test_run_timeout_unlinks_shm_and_reaps_children(self):
        before = _shm_segments()
        spec = _spec(
            SLOW_RANK, 2, recv_timeout_s=30.0, run_timeout_s=0.5
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RunTimeoutError):
                get_backend("mp").launch(spec)
        assert multiprocessing.active_children() == []
        assert _shm_segments() - before == set()

    def test_sigkilled_rank_leaves_nothing_behind(self):
        before = _shm_segments()
        plan = FaultPlan.parse("kill:rank=0:op=send:n=1")
        with pytest.raises(RankCrashError):
            get_backend("mp").launch(_spec(ROUNDTRIP, 2, plan=plan))
        assert multiprocessing.active_children() == []
        assert _shm_segments() - before == set()


# ---------------------------------------------------------------------------
# Supervision: retries, backoff determinism, fallback chains
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, jitter_frac=0.0
        )
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.4)

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=5, jitter_frac=0.5)
        b = RetryPolicy(seed=5, jitter_frac=0.5)
        c = RetryPolicy(seed=6, jitter_frac=0.5)
        for attempt in range(4):
            assert a.backoff_s(attempt) == b.backoff_s(attempt)
        assert any(
            a.backoff_s(k) != c.backoff_s(k) for k in range(4)
        )

    def test_zero_budget_is_refused(self):
        # a policy that allows no launch has no outcome to report
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)


class TestSupervision:
    def _policy(self, max_attempts):
        return RetryPolicy(
            max_attempts=max_attempts,
            backoff_base_s=0.01,
            jitter_frac=0.0,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_crash_recovers_on_retry(self, backend, leak_check):
        plan = FaultPlan.parse("crash:rank=1:op=recv:n=1:attempts=1")
        spec = _spec(ROUNDTRIP, 2, plan=plan)
        launch, used, attempts = _supervised_launch(
            spec, [get_backend(backend)], self._policy(3)
        )
        assert used.name == backend
        assert launch.results[0].scalars["out"] == 3.0
        assert [a.outcome for a in attempts] == ["RankCrashError", "ok"]
        assert attempts[0].backoff_s > 0.0
        assert attempts[-1].ok

    def test_fallback_chain_degrades_to_working_backend(self, leak_check):
        plan = FaultPlan.parse("shm-alloc")  # mp can never launch
        spec = _spec(ROUNDTRIP, 2, plan=plan)
        launch, used, attempts = _supervised_launch(
            spec,
            [get_backend("mp"), get_backend("threads")],
            self._policy(2),
        )
        assert used.name == "threads"
        assert [a.backend for a in attempts] == ["mp", "mp", "threads"]
        assert [a.outcome for a in attempts] == [
            "LaunchError", "LaunchError", "ok",
        ]
        assert launch.results[1].scalars["out"] == 2.0

    def test_permanent_failure_is_not_retried(self):
        tag_mismatch = """
def node_main(rt):
    if rt.rank == 0:
        rt.send_section(1, "a", "a", [("S", ((0, 1, 1),))])
    else:
        rt.recv_section(0, "b", "a")
"""
        spec = _spec(tag_mismatch, 2)
        with pytest.raises(CommunicationError) as info:
            _supervised_launch(
                spec, [get_backend("threads")], self._policy(3)
            )
        assert not is_transient(info.value)
        # exactly one attempt was made — permanent errors short-circuit
        assert len(info.value.attempts) == 1

    def test_exhausted_budget_attaches_attempt_history(self):
        plan = FaultPlan.parse("crash:rank=1:op=recv:n=1")  # every attempt
        spec = _spec(ROUNDTRIP, 2, plan=plan)
        with pytest.raises(RankCrashError) as info:
            _supervised_launch(
                spec, [get_backend("threads")], self._policy(2)
            )
        assert [a.outcome for a in info.value.attempts] == [
            "RankCrashError", "RankCrashError",
        ]

    def test_run_compiled_surfaces_attempt_history(self, leak_check):
        """End to end: a transient fault on a real compiled program is
        supervised away, and RunOutcome records every attempt."""
        from repro import compile_program, run_compiled
        from repro.programs import tomcatv

        compiled = compile_program(tomcatv())
        plan = FaultPlan.parse("crash:rank=1:op=recv:n=1:attempts=1")
        outcome = run_compiled(
            compiled,
            params={"n": 12, "niter": 2},
            nprocs=2,
            backend="threads",
            runtime_options=RuntimeOptions(
                recv_timeout_s=2.0, fault_plan=plan
            ),
            retry_policy=RetryPolicy(
                max_attempts=2, backoff_base_s=0.01, jitter_frac=0.0
            ),
        )
        assert outcome.backend == "threads"
        assert [a.outcome for a in outcome.attempts] == [
            "RankCrashError", "ok",
        ]

    def test_divergence_is_never_transient(self, reference_results):
        tweaked = [
            type(r)(
                r.rank, dict(r.arrays),
                {**r.scalars, "out": -1.0}, r.trace, r.env,
            )
            for r in reference_results
        ]
        with pytest.raises(ResultDivergenceError) as info:
            cross_check_results(tweaked, reference_results, "chaos")
        assert not is_transient(info.value)
