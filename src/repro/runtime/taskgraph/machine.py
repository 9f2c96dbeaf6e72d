"""Transport for the task-graph backend: tag-addressed, latency-aware.

The plain :class:`~repro.runtime.machine.Machine` keeps one FIFO per
``(src, dest)`` rank pair, which is exactly right when each rank runs its
program in order — but the task scheduler reorders independent units, so
a receive for tag B may run before the receive for tag A even though A's
message is at the head of the FIFO.  :class:`TaskMachine` therefore keys
channels by ``(src, dest, tag, instance)``: every communication event
instance gets its own mailbox and reordering across *independent* events
can never mis-deliver.  Ordering within one event instance is untouched
(per-channel FIFO), so duplicate-injection faults behave as on
``threads``.

Two more things the scheduler needs from its transport:

* **Simulated link latency** (``comm_latency_s``): messages carry a
  ready-at timestamp and a receive blocks until it passes.  The threads
  machine honors the same knob, so overlap benchmarks compare the two
  backends under identical communication cost.
* **Abort awareness**: the inherited :meth:`Machine.abort_run` also
  wakes receives blocked on the mailbox condition, so a failed unit
  ends the run promptly here as on ``threads``.

Collectives are the inherited rendezvous unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..errors import RankDiagnostics, RecvTimeoutError
from ..machine import Machine

__all__ = ["TaskMachine"]


class TaskMachine(Machine):
    """A :class:`Machine` with per-(tag, instance) mailboxes."""

    def __init__(
        self,
        nprocs: int,
        recv_timeout_s: Optional[float] = None,
        run_timeout_s: float = 600.0,
        comm_latency_s: float = 0.0,
    ):
        super().__init__(
            nprocs, recv_timeout_s, run_timeout_s,
            comm_latency_s=comm_latency_s,
        )
        self._cv = threading.Condition()
        #: (src, dest, tag, instance) -> deque of (ready_at, tag, idx, data)
        self._boxes: Dict[Tuple[int, int, object, int], Deque] = {}
        #: phase-loop instance of the unit currently executing per rank;
        #: safe without extra locking because the scheduler runs at most
        #: one unit per rank at a time.
        self._instance = [0] * nprocs

    # -- scheduler hooks ----------------------------------------------------

    def set_instance(self, rank: int, instance: int) -> None:
        self._instance[rank] = instance

    def latest_ready_at(self, dest: int, tag, instance: int) -> float:
        """Arrival time of the last in-flight message for an event.

        Meaningful once every send unit of the ``(tag, instance)`` event
        has completed (the scheduler's gate): all messages are queued, so
        the maximum ready-at stamp is when the receive can run without
        blocking.  Returns 0.0 when nothing is queued for ``dest``.
        """
        with self._cv:
            return max(
                (
                    box[-1][0]
                    for (src, d, t, i), box in self._boxes.items()
                    if d == dest and t == tag and i == instance and box
                ),
                default=0.0,
            )

    def channel_occupancy(self, dest: int) -> Dict[int, int]:
        with self._cv:
            occupancy: Dict[int, int] = {}
            for (src, d, _t, _i), box in self._boxes.items():
                if d == dest and box:
                    occupancy[src] = occupancy.get(src, 0) + len(box)
            return occupancy

    # -- transport ----------------------------------------------------------

    def put_message(self, src, dest, tag, indices, data) -> None:
        key = (src, dest, tag, self._instance[src])
        ready_at = time.monotonic() + self.comm_latency_s
        with self._cv:
            self._boxes.setdefault(key, deque()).append(
                (ready_at, tag, indices, data)
            )
            self._cv.notify_all()

    def get_message(self, src, dest, tag):
        key = (src, dest, tag, self._instance[dest])
        deadline = time.monotonic() + self.recv_timeout_s
        with self._cv:
            while True:
                box = self._boxes.get(key)
                now = time.monotonic()
                if box:
                    ready_at = box[0][0]
                    if ready_at <= now:
                        _ready, got_tag, indices, data = box.popleft()
                        return got_tag, indices, data
                    wait = min(ready_at - now, deadline - now)
                else:
                    wait = deadline - now
                if self.abort.is_set():
                    raise self.abandoned(
                        dest, "recv", f"receive of {tag!r} from {src}"
                    )
                if wait <= 0:
                    raise RecvTimeoutError(
                        f"rank {dest} timed out receiving {tag!r} from "
                        f"{src} after {self.recv_timeout_s:g}s",
                        diagnostics=[
                            RankDiagnostics(
                                rank=dest,
                                phase="recv",
                                detail=(
                                    f"blocked on tag {tag!r} from rank "
                                    f"{src}; pending inbound messages by "
                                    "source: "
                                    f"{self.channel_occupancy(dest) or 'none'}"
                                ),
                                ring_occupancy=self.channel_occupancy(dest),
                            )
                        ],
                    )
                self._cv.wait(timeout=wait)

    def abort_run(self) -> None:
        super().abort_run()
        with self._cv:
            self._cv.notify_all()
