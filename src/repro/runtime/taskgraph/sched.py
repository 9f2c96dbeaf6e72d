"""Work-stealing execution of a :class:`TaskPlan`.

Workers own LIFO deques (hot successors run depth-first) and steal FIFO
from peers when idle (old, wide work migrates — the classic Chase-Lev
policy, here under one scheduler lock since units are coarse).  A unit
becomes *ready* when its dependence in-degree drains; readiness is
necessary but not sufficient to run:

* **Rank exclusivity** — at most one unit of a rank executes at a time.
  Units share their rank's namespace, runtime, and trace; exclusivity
  plus the plan's conflict edges is what makes results and traces
  bitwise-identical to the ``threads`` schedule (conflicting units run
  in program order; reordered units are provably independent).  A ready
  unit whose rank is busy waits in that rank's pending queue and is
  promoted when the running unit completes.
* **Arrival parking** — a gated receive (all matching send units done)
  whose messages are still in flight under simulated latency is parked
  in a time heap rather than occupying a worker; it is released when the
  last message's ready-at stamp passes.  This is the mechanism that
  converts receive *blocking* time into useful compute time.

Failure semantics are :meth:`Machine.run`'s own: the first failing unit
aborts the run (no new units dispatched; ``machine.fail`` wakes blocked
transport calls) and ``machine.raise_failure`` picks what the caller
sees.  Every worker thread
is joined before :meth:`TaskScheduler.run` returns — including on the
error paths — so chaos tests can assert zero leaked threads.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import RankDiagnostics, RunTimeoutError, trace_tail
from .plan import TaskPlan

__all__ = ["SchedulerStats", "TaskScheduler"]

#: idle-worker wake-up slice: bounds abort/deadline reaction time.
_IDLE_WAIT_S = 0.1


@dataclass
class SchedulerStats:
    """Observability counters for one scheduled launch."""

    workers: int
    units: int
    executed: int
    steals: int
    max_ready_depth: int
    parked_peak: int
    #: critical path through the instance DAG, in units and in measured
    #: seconds (longest chain of unit durations along dependence edges).
    critical_path_units: int
    critical_path_s: float
    #: measured seconds summed per template-graph SCC (condensation id).
    per_scc_s: Dict[int, float] = field(default_factory=dict)
    #: structural plan counters (see :meth:`TaskPlan.stats`).
    plan: Dict[str, int] = field(default_factory=dict)
    topo_hash: str = ""
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "units": self.units,
            "executed": self.executed,
            "steals": self.steals,
            "max_ready_depth": self.max_ready_depth,
            "parked_peak": self.parked_peak,
            "critical_path_units": self.critical_path_units,
            "critical_path_s": round(self.critical_path_s, 6),
            "per_scc_s": {
                str(scc): round(s, 6)
                for scc, s in sorted(self.per_scc_s.items())
            },
            "plan": dict(self.plan),
            "topo_hash": self.topo_hash,
            "notes": list(self.notes),
        }


class TaskScheduler:
    """Executes one plan on a pool of stealing workers."""

    def __init__(
        self,
        plan: TaskPlan,
        machine,
        runtimes: Sequence,
        namespaces: Sequence[Dict[str, Any]],
        code_objects: Sequence,
        workers: int,
        run_timeout_s: float,
    ):
        self.plan = plan
        self.machine = machine
        self.runtimes = list(runtimes)
        self.namespaces = list(namespaces)
        self.code_objects = list(code_objects)
        self.n_workers = max(1, workers)
        self.run_timeout_s = run_timeout_s

        # Plan invariants are computed at plan build (plan.py); only the
        # in-degree counters are per-launch state.
        self._succs = plan.successors()
        self._indeg = plan.indegrees()
        self._comm_dist = plan.comm_distance
        self._gated = plan.gated

        self._cv = threading.Condition()
        self._deques: List[deque] = [deque() for _ in range(self.n_workers)]
        self._rank_busy = [False] * plan.nprocs
        self._rank_pending: List[deque] = [deque() for _ in range(plan.nprocs)]
        self._parked: List = []  # heap of (ready_time, uid)
        self._executed = 0
        self._ready_count = 0
        self._durations = [0.0] * len(plan.units)
        self._rank_busy_s = [0.0] * plan.nprocs
        self._steals = 0
        self._max_ready = 0
        self._parked_peak = 0

    # -- readiness ----------------------------------------------------------

    def _enqueue(self, uid: int, worker: int) -> None:
        # caller holds self._cv
        rank = self.plan.units[uid].rank
        if self._rank_busy[rank]:
            self._rank_pending[rank].append(uid)
            return
        self._deques[worker % self.n_workers].append(uid)
        self._ready_count += 1
        self._max_ready = max(self._max_ready, self._ready_count)

    def _make_ready(self, uid: int, worker: int) -> None:
        # caller holds self._cv
        unit = self.plan.units[uid]
        if uid in self._gated:
            ready_at = self.machine.latest_ready_at(
                unit.rank, unit.tag, unit.instance
            )
            if ready_at > time.monotonic():
                heapq.heappush(self._parked, (ready_at, uid))
                self._parked_peak = max(
                    self._parked_peak, len(self._parked)
                )
                return
        self._enqueue(uid, worker)

    def _release_parked(self, now: float, worker: int) -> None:
        # caller holds self._cv
        while self._parked and self._parked[0][0] <= now:
            _t, uid = heapq.heappop(self._parked)
            self._enqueue(uid, worker)

    def _take(self, worker: int) -> Optional[int]:
        """Next runnable unit for ``worker``; None means shut down."""
        with self._cv:
            while True:
                if (self.machine.abort.is_set()
                        or self._executed >= len(self.plan.units)):
                    return None
                now = time.monotonic()
                self._release_parked(now, worker)
                uid = self._pop(worker)
                if uid is not None:
                    rank = self.plan.units[uid].rank
                    if self._rank_busy[rank]:
                        self._rank_pending[rank].append(uid)
                        continue
                    self._rank_busy[rank] = True
                    return uid
                timeout = _IDLE_WAIT_S
                if self._parked:
                    timeout = min(
                        timeout, max(0.0, self._parked[0][0] - now)
                    )
                self._cv.wait(timeout=timeout)

    def _pop(self, worker: int) -> Optional[int]:
        # caller holds self._cv
        own = self._deques[worker]
        if own:
            self._ready_count -= 1
            # Comm-critical first: the unit nearest a downstream send
            # (program order on ties).  Queued messages in flight while
            # local compute runs is the whole point of the backend, so
            # the chain that launches sends outranks bulk compute.
            dist = self._comm_dist
            best = min(range(len(own)), key=lambda k: (dist[own[k]], own[k]))
            uid = own[best]
            del own[best]
            return uid
        for offset in range(1, self.n_workers):
            victim = self._deques[(worker + offset) % self.n_workers]
            if victim:
                self._steals += 1
                self._ready_count -= 1
                # Thieves take the bulkiest work (farthest from a send,
                # oldest on ties): the owner chases the comm chain while
                # stolen compute fills the flight time.
                dist = self._comm_dist
                best = max(
                    range(len(victim)),
                    key=lambda k: (dist[victim[k]], -victim[k]),
                )
                uid = victim[best]
                del victim[best]
                return uid
        return None

    # -- execution ----------------------------------------------------------

    def _run_unit(self, uid: int) -> Optional[BaseException]:
        unit = self.plan.units[uid]
        self.machine.set_instance(unit.rank, unit.instance)
        start = time.perf_counter()
        try:
            exec(  # noqa: S102 - generated program fragments
                self.code_objects[uid], self.namespaces[unit.rank]
            )
            error = None
        except BaseException as exc:  # surfaced with Machine.run precedence
            error = exc
        duration = time.perf_counter() - start
        self._durations[uid] = duration
        self._rank_busy_s[unit.rank] += duration
        return error

    def _complete(self, uid: int, worker: int,
                  error: Optional[BaseException]) -> None:
        unit = self.plan.units[uid]
        with self._cv:
            self._rank_busy[unit.rank] = False
            self._executed += 1
            if error is not None:
                self.machine.fail(unit.rank, error)
            elif not self.machine.abort.is_set():
                for succ in self._succs[uid]:
                    self._indeg[succ] -= 1
                    if self._indeg[succ] == 0:
                        self._make_ready(succ, worker)
                pending = self._rank_pending[unit.rank]
                if pending:
                    self._enqueue(pending.popleft(), worker)
            self._cv.notify_all()

    def _worker(self, worker: int) -> None:
        while True:
            uid = self._take(worker)
            if uid is None:
                return
            error = self._run_unit(uid)
            self._complete(uid, worker, error)

    def run(self) -> SchedulerStats:
        """Execute the plan; raises exactly like :meth:`Machine.run`."""
        with self._cv:
            for uid, degree in enumerate(self._indeg):
                if degree == 0:
                    self._make_ready(uid, uid)
        threads = [
            threading.Thread(
                target=self._worker, args=(w,), daemon=True,
                name=f"taskgraph-worker-{w}",
            )
            for w in range(self.n_workers)
        ]
        deadline = time.monotonic() + self.run_timeout_s
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in threads):
            with self._cv:
                self.machine.abort_run()
                self._cv.notify_all()
            for thread in threads:  # wake-up is prompt; reap them all
                thread.join(timeout=5.0 + self.run_timeout_s)
            raise RunTimeoutError(
                "task-graph run did not terminate within "
                f"{self.run_timeout_s:g}s",
                diagnostics=[
                    RankDiagnostics(
                        rank=rank,
                        phase=self.runtimes[rank].phase,
                        detail=(
                            f"{self._executed}/{len(self.plan.units)} "
                            "units executed at the deadline"
                        ),
                        trace_tail=trace_tail(self.runtimes[rank].trace),
                    )
                    for rank, busy in enumerate(self._rank_busy)
                    if busy
                ]
                or None,
            )
        self.machine.raise_failure(self.runtimes)
        return self._stats()

    # -- reporting ----------------------------------------------------------

    def rank_busy_seconds(self) -> List[float]:
        return list(self._rank_busy_s)

    def _stats(self) -> SchedulerStats:
        # Only the measured critical path depends on this launch: one
        # pass over the plan's topological order.
        durations = self._durations
        cp_s = list(durations)
        for uid in self.plan.topo_order:
            reach = cp_s[uid]
            for succ in self._succs[uid]:
                if reach + durations[succ] > cp_s[succ]:
                    cp_s[succ] = reach + durations[succ]
        per_scc: Dict[int, float] = {}
        for unit, duration in zip(self.plan.units, durations):
            per_scc[unit.scc] = per_scc.get(unit.scc, 0.0) + duration
        return SchedulerStats(
            workers=self.n_workers,
            units=len(self.plan.units),
            executed=self._executed,
            steals=self._steals,
            max_ready_depth=self._max_ready,
            parked_peak=self._parked_peak,
            critical_path_units=self.plan.critical_path_units,
            critical_path_s=max(cp_s, default=0.0),
            per_scc_s=per_scc,
            plan=self.plan.stats(),
            topo_hash=self.plan.topo_hash(),
            notes=list(self.plan.notes),
        )
