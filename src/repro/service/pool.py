"""Pre-forked compile worker pool: parallel cold compiles, one supervisor
thread per slot.

Why processes: the compiler is pure Python, so concurrent cold compiles
in the threaded front-end serialize on the GIL.  The pool dispatches
each *actual* compile (post cache, post single-flight) to a worker
process over a duplex pipe; artifacts are already picklable (the PR 3
persistent cache pickles them), so the wire format is the pickle the
disk store would have written anyway — which is also why pooled
artifacts stay byte-identical to local ``caching=off`` compiles: the
worker runs exactly the ``compile_program(source, options)`` call the
front-end would have run, in a process whose inputs are the same
``(source, options)`` pair.

Start method: workers are (re)spawned from supervisor *threads*, and
``fork`` from a threaded process is deprecated (a ``DeprecationWarning``
that ``-W error`` turns fatal on 3.12).  The pool therefore uses the
``forkserver`` context (preloaded with this module) and falls back to
``spawn``; ``REPRO_POOL_START_METHOD`` overrides for debugging.

Backpressure: the dispatch queue is bounded at ``queue_depth``.  A
submit against a full queue fails *immediately* with
:class:`PoolSaturatedError` (the HTTP layer maps it to 429 +
``Retry-After``) — shedding at the door beats queueing into timeout.

The pipe protocol (all tuples, all picklable)::

    → ("compile", req_id, source, options)   compile request
    ← ("ok",  req_id, compiled, rss_kb)      artifact (set_stats inside)
    ← ("err", req_id, type, message, rss_kb) clean typed compile failure
    → ("ping", req_id) / ← ("pong", req_id, rss_kb)   idle health check
    → ("exit",)                              graceful worker shutdown

Fault injection: ``worker-crash`` / ``worker-stall`` FaultPlan kinds
fire *inside the worker* before the compile — ``rank`` selects the pool
slot, ``attempts=A`` limits the fault to the slot's first ``A``
incarnations (the standard transient-fault idiom), and the worker
SIGKILLs itself / sleeps ``ms`` so the supervisor's crash and deadline
paths are exercised by a real dead process, not a mock.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal as signal_mod
import threading
import time
from typing import Dict, Optional

from ..core.driver import compile_program
from ..runtime.errors import CommunicationError
from ..runtime.faults import FaultPlan, WORKER_FAULT_KINDS
from ..runtime.harness import RetryPolicy
from .supervisor import (
    PHASES,
    RESPAWN_POLICY,
    CompileTask,
    Quarantine,
    WorkerSupervisor,
    read_rss_kb,
)

_PHASE_INDEX = {name: i for i, name in enumerate(PHASES)}


class PoolSaturatedError(CommunicationError):
    """The dispatch queue is at capacity; shed load (HTTP 429).

    ``retry_after_s`` is the server's backoff hint: roughly the time for
    the queue to half-drain at the current deadline budget.
    """

    transient = True

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class PoolDrainingError(CommunicationError):
    """The pool is draining for shutdown; no new work is accepted."""

    transient = True


def _fire_worker_faults(injector, deadline_hint_s: float) -> None:
    """Apply pool fault kinds for one compile request, inside the worker."""
    if injector is None:
        return
    for action, delay_s in injector._fire("compile"):
        if action == "worker-crash":
            os.kill(os.getpid(), signal_mod.SIGKILL)
        elif action == "worker-stall":
            # Sleep past the supervisor's deadline; it will kill us.
            time.sleep(delay_s if delay_s > 0 else deadline_hint_s * 4)


def worker_main(
    slot: int,
    slot_gen: int,
    conn,
    phase,
    fault_plan: Optional[FaultPlan],
    deadline_hint_s: float,
) -> None:
    """Worker process entry point (top-level: spawn/forkserver picklable).

    Serves compile requests until ``("exit",)`` or EOF.  The shared
    ``phase`` value is the worker's last known phase for crash
    diagnostics; the parent reads it after a death.
    """
    signal_mod.signal(signal_mod.SIGINT, signal_mod.SIG_IGN)
    injector = None
    if fault_plan is not None and fault_plan.faults:
        plan = fault_plan.for_attempt(slot_gen)
        plan = FaultPlan(
            seed=plan.seed,
            faults=tuple(
                f for f in plan.faults if f.kind in WORKER_FAULT_KINDS
            ),
        )
        if plan.faults:
            injector = plan.injector(slot)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        kind = request[0]
        if kind == "exit":
            return
        if kind == "ping":
            conn.send(("pong", request[1], read_rss_kb()))
            continue
        # ("compile", req_id, source, options)
        _, req_id, source, options = request
        phase.value = _PHASE_INDEX["compile"]
        try:
            _fire_worker_faults(injector, deadline_hint_s)
            compiled = compile_program(
                source, options.with_(profile_sets=True)
            )
        except Exception as exc:
            phase.value = _PHASE_INDEX["send"]
            conn.send(
                ("err", req_id, type(exc).__name__, str(exc),
                 read_rss_kb())
            )
        else:
            phase.value = _PHASE_INDEX["send"]
            conn.send(("ok", req_id, compiled, read_rss_kb()))
        phase.value = _PHASE_INDEX["idle"]


class WorkerHandle:
    """Parent-side view of one worker incarnation."""

    __slots__ = ("proc", "conn", "phase", "generation", "pid",
                 "last_rss_kb")

    def __init__(self, proc, conn, phase, generation: int):
        self.proc = proc
        self.conn = conn
        self.phase = phase
        self.generation = generation
        self.pid = proc.pid
        self.last_rss_kb: Optional[int] = None

    def phase_name(self) -> str:
        try:
            return PHASES[self.phase.value]
        except (IndexError, OSError):
            return "unknown"

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        # A joined Process still holds a sentinel fd; close() releases
        # it (and raises if the process is somehow still alive).
        if self.proc.exitcode is not None:
            self.proc.close()


class _PoolStats:
    """Thread-safe counters for pool lifecycle events."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + by

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._counts.items()))


def _pool_context():
    """The multiprocessing context workers are spawned from.

    ``forkserver`` (preloaded) by default: respawns happen on supervisor
    threads, where a plain ``fork`` is deprecated-then-fatal under
    ``-W error``.  ``REPRO_POOL_START_METHOD`` overrides.
    """
    method = os.environ.get("REPRO_POOL_START_METHOD")
    if method:
        return multiprocessing.get_context(method)
    try:
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload(["repro.service.pool"])
        return ctx
    except ValueError:  # platform without forkserver
        return multiprocessing.get_context("spawn")


class WorkerPool:
    """A supervised, bounded, quarantining pool of compile workers."""

    def __init__(
        self,
        workers: int = 2,
        queue_depth: int = 16,
        quarantine_after: int = 3,
        compile_deadline_s: float = 60.0,
        fault_plan: Optional[FaultPlan] = None,
        respawn_policy: RetryPolicy = RESPAWN_POLICY,
        health_interval_s: float = 2.0,
    ):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.workers = workers
        self.queue_depth = queue_depth
        self.compile_deadline_s = compile_deadline_s
        self.fault_plan = fault_plan
        self.quarantine = Quarantine(quarantine_after)
        self.stats_counters = _PoolStats()
        self.tasks: "queue.Queue[Optional[CompileTask]]" = queue.Queue(
            maxsize=queue_depth
        )
        self._ctx = _pool_context()
        self._generation_lock = threading.Lock()
        self._next_generation = 0
        self._draining = False
        self._drained = False
        self._supervisors = [
            WorkerSupervisor(
                slot=slot,
                tasks=self.tasks,
                spawn=self._spawn,
                quarantine=self.quarantine,
                pool_stats=self.stats_counters,
                compile_deadline_s=compile_deadline_s,
                respawn_policy=respawn_policy,
                health_interval_s=health_interval_s,
            )
            for slot in range(workers)
        ]

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        for sup in self._supervisors:
            sup.start()
        return self

    def _spawn(self, slot: int, slot_gen: int) -> WorkerHandle:
        with self._generation_lock:
            generation = self._next_generation
            self._next_generation += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        phase = self._ctx.Value("i", _PHASE_INDEX["idle"], lock=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(slot, slot_gen, child_conn, phase, self.fault_plan,
                  self.compile_deadline_s),
            name=f"compile-worker-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return WorkerHandle(proc, parent_conn, phase, generation)

    def begin_drain(self) -> None:
        """Stop accepting work; queued + in-flight requests still finish."""
        self._draining = True
        for sup in self._supervisors:
            sup.begin_drain()
        # Wake supervisors blocked on an empty queue so they can exit.
        for _ in self._supervisors:
            try:
                self.tasks.put_nowait(None)
            except queue.Full:
                break

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: drain, stop workers, join supervisors.

        Returns True when every supervisor exited (and with it every
        worker: supervisors stop their worker on the way out with the
        terminate→join→kill escalation).  Idempotent.
        """
        self.begin_drain()
        deadline = time.monotonic() + timeout_s
        ok = True
        for sup in self._supervisors:
            sup.join(timeout=max(0.0, deadline - time.monotonic()))
            ok = ok and not sup.is_alive()
        if not ok:
            # Supervisors wedged (should not happen) — last-resort kill
            # so no child outlives the pool.
            for sup in self._supervisors:
                handle = sup.handle
                if handle is not None and handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=2.0)
        self._drained = True
        return ok

    @property
    def draining(self) -> bool:
        return self._draining

    def alive_workers(self) -> int:
        return sum(
            1
            for sup in self._supervisors
            if sup.handle is not None and sup.handle.proc.is_alive()
        )

    # -- submitting ---------------------------------------------------------

    def compile(self, source: str, options, fingerprint: str):
        """Dispatch one compile; block until its worker resolves it.

        Raises :class:`PoolDrainingError` / :class:`PoolSaturatedError`
        before queueing, ``CompileQuarantinedError`` for poisoned
        fingerprints, and the transient ``WorkerCrashError`` /
        ``WorkerStallError`` when the serving worker is lost (callers
        retry those; see ``CompileService``).
        """
        if self._draining:
            raise PoolDrainingError(
                "compile pool is draining; not accepting work"
            )
        self.quarantine.check(fingerprint)
        task = CompileTask(source, options, fingerprint)
        try:
            self.tasks.put_nowait(task)
        except queue.Full:
            self.stats_counters.incr("shed")
            # Hint ~one queued-compile-per-worker of backoff; precise
            # drain-rate accounting is not worth the bookkeeping here.
            raise PoolSaturatedError(
                f"dispatch queue at capacity ({self.queue_depth}); "
                "retry later",
                retry_after_s=max(
                    1.0, round(self.queue_depth / max(1, self.workers))
                ),
            )
        # Bounded backstop, never a hang: worst case the task waits for
        # every queued request ahead of it to burn a full deadline.
        budget = self.compile_deadline_s * (self.queue_depth + 2) + 30.0
        if not task.event.wait(budget):
            raise PoolSaturatedError(
                "compile task lost by the pool (supervisors wedged)",
                retry_after_s=5.0,
            )
        if task.exc is not None:
            raise task.exc
        return task.value

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        counters = self.stats_counters.snapshot()
        return {
            "workers": self.workers,
            "alive": self.alive_workers(),
            "draining": self._draining,
            "queue_depth": self.tasks.qsize(),
            "queue_capacity": self.queue_depth,
            "compile_deadline_s": self.compile_deadline_s,
            "generations": self._next_generation,
            "quarantine": self.quarantine.snapshot(),
            "counters": counters,
            "rss_kb": {
                sup.slot: sup.handle.last_rss_kb
                for sup in self._supervisors
                if sup.handle is not None
            },
        }


__all__ = [
    "PoolDrainingError",
    "PoolSaturatedError",
    "WorkerHandle",
    "WorkerPool",
    "worker_main",
]
