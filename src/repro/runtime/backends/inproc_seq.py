"""``inproc-seq`` backend: deterministic sequential SPMD scheduler.

Ranks execute one at a time.  A single scheduler token is handed around
rank-cyclically: the active rank runs uninterrupted until it blocks (a
receive on an empty channel, or a collective it is not the last to reach)
or finishes, at which point the token passes to the next runnable rank in
rank order.  The resulting schedule is a pure function of the program, so
two runs produce byte-identical traces — this is the golden reference for
debugging the concurrent backends.

Deadlock is detected structurally (no runnable rank while some are
unfinished) rather than by timeout, so broken programs fail immediately
and deterministically with :class:`CommunicationError`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..errors import RankDiagnostics, RecvTimeoutError
from ..machine import Machine
from .threads import ThreadsBackend


class SequentialMachine(Machine):
    """A :class:`Machine` whose ranks run under a cooperative token."""

    def __init__(
        self,
        nprocs: int,
        recv_timeout_s: Optional[float] = None,
        run_timeout_s: float = 600.0,
        comm_latency_s: float = 0.0,
    ):
        # ``comm_latency_s`` is accepted for interface parity but unused:
        # this machine's transport is overridden below and its cooperative
        # schedule is already deterministic without simulated delays.
        super().__init__(nprocs, recv_timeout_s, run_timeout_s)
        self._cond = threading.Condition()
        self._mail: Dict[Tuple[int, int], Deque] = {}
        self._active: Optional[int] = None
        self._blocked: Dict[int, Callable[[], bool]] = {}
        self._registered: set = set()
        self._finished: set = set()
        self._deadlocked = False
        self._coll_values: list = []
        self._coll_result = None
        self._coll_generation = 0

    # -- scheduling -------------------------------------------------------------

    def _wait_for_turn(self, rank: int) -> None:
        # caller holds self._cond
        self._cond.wait_for(
            lambda: self._active == rank or self._deadlocked
        )
        if self._deadlocked:
            # Deadlock is *proved* structurally, but it is the same
            # failure a timed-out receive reports on the concurrent
            # backends — so it carries the same type and payload.
            raise RecvTimeoutError(
                "sequential schedule deadlocked: no rank can make "
                "progress (detected structurally, not by timeout)",
                diagnostics=[
                    RankDiagnostics(
                        rank=rank,
                        phase="recv",
                        detail=(
                            "blocked ranks: "
                            f"{sorted(self._blocked) or [rank]}; finished: "
                            f"{sorted(self._finished) or 'none'}"
                        ),
                        ring_occupancy=self._mail_occupancy(rank),
                    )
                ],
            )

    def _mail_occupancy(self, dest: int):
        # caller holds self._cond
        return {
            src: len(box)
            for (src, d), box in self._mail.items()
            if d == dest and box
        }

    def _grant_next(self, after: int) -> None:
        # caller holds self._cond
        for k in range(1, self.nprocs + 1):
            r = (after + k) % self.nprocs
            if r in self._finished or r not in self._registered:
                continue
            predicate = self._blocked.get(r)
            if predicate is None or predicate():
                self._blocked.pop(r, None)
                self._active = r
                self._cond.notify_all()
                return
        self._active = None
        if len(self._finished) < len(self._registered):
            self._deadlocked = True
            self._cond.notify_all()

    def _yield_until(self, rank: int, predicate: Callable[[], bool]) -> None:
        # caller holds self._cond
        self._blocked[rank] = predicate
        self._grant_next(rank)
        self._wait_for_turn(rank)

    def _begin(self, rank: int) -> None:
        with self._cond:
            self._registered.add(rank)
            if len(self._registered) == self.nprocs:
                self._active = 0
                self._cond.notify_all()
            self._wait_for_turn(rank)

    def _finish(self, rank: int) -> None:
        with self._cond:
            self._finished.add(rank)
            if self._active == rank:
                self._grant_next(rank)

    # -- transport --------------------------------------------------------------

    def put_message(self, src, dest, tag, sections, data) -> None:
        with self._cond:
            self._mail.setdefault((src, dest), deque()).append(
                (tag, sections, data)
            )

    def get_message(self, src, dest, tag):
        with self._cond:
            box = self._mail.setdefault((src, dest), deque())
            if not box:
                self._yield_until(dest, lambda: bool(box))
            return box.popleft()

    def combine(self, rank: int, value, op):
        with self._cond:
            generation = self._coll_generation
            self._coll_values.append(value)
            if len(self._coll_values) == self.nprocs:
                self._coll_result = op(self._coll_values)
                self._coll_values = []
                self._coll_generation += 1
                # last arriver keeps the token and continues
            else:
                self._yield_until(
                    rank,
                    lambda: self._coll_generation != generation,
                )
            return self._coll_result

    # -- execution --------------------------------------------------------------

    def run(self, node_main, make_runtime):
        def gated_main(rt):
            self._begin(rt.rank)
            try:
                node_main(rt)
            finally:
                self._finish(rt.rank)

        return super().run(gated_main, make_runtime)


class SequentialBackend(ThreadsBackend):
    name = "inproc-seq"
    machine_cls = SequentialMachine
