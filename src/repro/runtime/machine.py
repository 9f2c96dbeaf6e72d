"""Simulated message-passing machine (the testbed substitute).

Each rank runs the generated node program on its own thread with real MPI
semantics: buffered (non-blocking) sends, blocking FIFO receives per
channel, and tree collectives.  Correctness comes from this execution;
predicted performance comes from replaying the recorded traces through
:mod:`repro.runtime.cost`.

This machine is one of several execution backends (see
:mod:`repro.runtime.backends`); it remains the default because it is cheap
to launch and exercises real concurrency.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    CommunicationError,
    RankCrashError,
    RankDiagnostics,
    RecvTimeoutError,
    RunTimeoutError,
    trace_tail,
)
from .noderuntime import NodeRuntimeBase
from .options import default_recv_timeout
from .sections import own_payload, pack_sections, scatter_sections
from .trace import Trace

__all__ = [
    "CommunicationError",  # canonical home is runtime.errors; re-exported
    "Machine",
    "NodeRuntime",
    "RankResult",
]


class _Collective:
    """Reusable rendezvous combining one value from every rank."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.timeout_s = machine.recv_timeout_s
        self.lock = threading.Condition()
        self.values: List[Tuple[int, Any]] = []
        self.result: Any = None
        self.generation = 0

    def combine(self, rank: int, value, op: Callable[[List[Any]], Any]):
        nprocs, abort = self.machine.nprocs, self.machine.abort
        with self.lock:
            generation = self.generation
            self.values.append((rank, value))
            if len(self.values) == nprocs:
                # Ascending rank order: one fixed combining order,
                # whatever order the ranks arrived in.
                self.result = op([v for _r, v in sorted(self.values)])
                self.values = []
                self.generation += 1
                self.lock.notify_all()
            elif not self.lock.wait_for(
                lambda: self.generation != generation or abort.is_set(),
                timeout=self.timeout_s,
            ):
                arrived = len(self.values)
                raise RecvTimeoutError(
                    "collective timed out after "
                    f"{self.timeout_s:g}s",
                    diagnostics=[
                        RankDiagnostics(
                            rank=rank,
                            phase="collective",
                            detail=(
                                f"{arrived}/{nprocs} ranks had "
                                "arrived at the rendezvous"
                            ),
                        )
                    ],
                )
            elif self.generation == generation:
                raise self.machine.abandoned(
                    rank, "collective", "collective"
                )
            return self.result


class NodeRuntime(NodeRuntimeBase):
    """The thread-machine implementation of the node-program runtime."""

    def __init__(
        self,
        machine: "Machine",
        rank: int,
        env: Dict[str, int],
        arrays: Dict[str, np.ndarray],
        lbounds: Dict[str, Tuple[int, ...]],
        scalars: Dict[str, float],
    ):
        super().__init__(rank, machine.nprocs, env, arrays, lbounds, scalars)
        self.machine = machine

    # -- communication ----------------------------------------------------------

    def send(
        self, dest: int, tag, values, indices=None, inplace: bool = False
    ) -> None:
        data, copied = own_payload(values)
        nbytes = data.nbytes
        self.trace.send(dest, tag, nbytes, 0 if inplace else nbytes)
        self.trace.data_copied(copied)
        self.machine.put_message(self.rank, dest, tag, indices, data)

    def recv(self, src: int, tag, inplace: bool = False):
        """Returns ``(indices, values)`` for the next message from src."""
        got_tag, indices, data = self.machine.get_message(
            src, self.rank, tag
        )
        if got_tag != tag:
            raise CommunicationError(
                f"rank {self.rank}: expected {tag!r} from {src}, "
                f"got {got_tag!r}"
            )
        data = np.asarray(data, dtype=np.float64)
        nbytes = data.nbytes
        self.trace.recv(src, tag, nbytes, 0 if inplace else nbytes)
        # Values are a float64 ndarray (sequence-compatible with the old
        # per-element list contract, without materializing one).
        return indices, data

    def send_section(
        self, dest: int, tag, name: str, sections, inplace: bool = False
    ) -> None:
        # The channel holds the payload until the receiver scatters it,
        # and sender/receiver share one address space: the sender must
        # snapshot (exactly one vectorized copy), zero-copy send would
        # let later writes to the array corrupt the in-flight message.
        payload, copied, viewed = pack_sections(
            self.arrays[name], self.lbounds[name], sections,
            force_copy=True,
        )
        nbytes = payload.nbytes
        self.trace.send(dest, tag, nbytes, 0 if inplace else nbytes)
        self.trace.data_copied(copied)
        self.trace.data_viewed(viewed)
        self.machine.put_message(self.rank, dest, tag, sections, payload)

    def recv_section(
        self, src: int, tag, name: str, inplace: bool = False, count=None
    ) -> None:
        got_tag, sections, payload = self.machine.get_message(
            src, self.rank, tag
        )
        if got_tag != tag:
            raise CommunicationError(
                f"rank {self.rank}: expected {tag!r} from {src}, "
                f"got {got_tag!r}"
            )
        self._check_count(src, tag, payload.size, count)
        nbytes = payload.nbytes
        self.trace.recv(src, tag, nbytes, 0 if inplace else nbytes)
        scatter_sections(
            self.arrays[name], self.lbounds[name], sections, payload
        )
        # Scattered straight from the in-flight buffer into array
        # storage: no staging copy on the receive side.
        self.trace.data_viewed(nbytes)

    def allreduce(self, op: str, value: float) -> float:
        self.trace.collective("allreduce", 8)
        ops = {
            "+": lambda vs: sum(vs),
            "max": lambda vs: max(vs),
            "min": lambda vs: min(vs),
        }
        return self.machine.combine(self.rank, value, ops[op])

    def barrier(self) -> None:
        self.trace.collective("barrier", 0)
        self.machine.combine(self.rank, 0, lambda vs: 0)


@dataclass
class RankResult:
    rank: int
    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, float]
    trace: Trace
    env: Dict[str, int]


class Machine:
    """Runs a node program on ``nprocs`` simulated processors."""

    def __init__(
        self,
        nprocs: int,
        recv_timeout_s: Optional[float] = None,
        run_timeout_s: float = 600.0,
        comm_latency_s: float = 0.0,
    ):
        self.nprocs = nprocs
        self.recv_timeout_s = (
            recv_timeout_s
            if recv_timeout_s is not None
            else default_recv_timeout()
        )
        self.run_timeout_s = run_timeout_s
        #: simulated per-message link latency (seconds).  Messages become
        #: visible to the receiver only after this delay, so backends can
        #: be compared under identical communication cost (see
        #: ``RuntimeOptions.comm_latency_s``).  Zero — the default — is
        #: the historical immediate-delivery behavior.
        self.comm_latency_s = comm_latency_s
        self._channels: Dict[Tuple[int, int], queue.Queue] = {}
        self._channel_lock = threading.Lock()
        #: set once any rank fails; blocked receives and collectives
        #: wake and raise :meth:`abandoned` instead of waiting out
        #: their timeout on a peer that will never answer.
        self.abort = threading.Event()
        #: ``(rank, error)`` in the order the ranks failed.
        self.failures: List[Tuple[int, BaseException]] = []
        self.collective = _Collective(self)

    def channel_occupancy(self, dest: int) -> Dict[int, int]:
        """Pending inbound message counts for ``dest``, by source rank."""
        with self._channel_lock:
            return {
                src: chan.qsize()
                for (src, d), chan in self._channels.items()
                if d == dest and chan.qsize()
            }

    def channel(self, src: int, dest: int) -> queue.Queue:
        key = (src, dest)
        with self._channel_lock:
            if key not in self._channels:
                self._channels[key] = queue.Queue()
            return self._channels[key]

    # -- transport hooks (overridden by the sequential machine) -----------------

    def put_message(self, src, dest, tag, indices, data) -> None:
        ready_at = time.monotonic() + self.comm_latency_s
        self.channel(src, dest).put((ready_at, tag, indices, data))

    def get_message(self, src, dest, tag):
        try:
            # Once the run is aborted only what is already queued is
            # delivered; ``None`` is the wake-up ``abort_run`` queues.
            message = self.channel(src, dest).get(
                timeout=0 if self.abort.is_set() else self.recv_timeout_s
            )
        except queue.Empty:
            if not self.abort.is_set():
                raise RecvTimeoutError(
                    f"rank {dest} timed out receiving {tag!r} from {src} "
                    f"after {self.recv_timeout_s:g}s",
                    diagnostics=[
                        RankDiagnostics(
                            rank=dest,
                            phase="recv",
                            detail=(
                                f"blocked on tag {tag!r} from rank {src}; "
                                "pending inbound messages by source: "
                                f"{self.channel_occupancy(dest) or 'none'}"
                            ),
                            ring_occupancy=self.channel_occupancy(dest),
                        )
                    ],
                ) from None
            message = None
        if message is None:
            raise self.abandoned(
                dest, "recv", f"receive of {tag!r} from {src}"
            )
        ready_at, got_tag, indices, data = message
        delay = ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        return got_tag, indices, data

    def combine(self, rank: int, value, op):
        return self.collective.combine(rank, value, op)

    # -- failure: abort the run, report the root cause --------------------------

    def abort_run(self) -> None:
        """Wake every rank blocked in a receive or at the rendezvous."""
        self.abort.set()
        with self._channel_lock:
            channels = list(self._channels.values())
        for chan in channels:
            chan.put(None)
        with self.collective.lock:
            self.collective.lock.notify_all()

    def fail(self, rank: int, error: BaseException) -> None:
        """Record that ``rank`` failed with ``error`` and abort the run."""
        self.failures.append((rank, error))
        self.abort_run()

    def abandoned(self, rank: int, phase: str, what: str) -> RecvTimeoutError:
        """The error a rank blocked on an aborted run wakes up with."""
        return RecvTimeoutError(
            f"rank {rank}: {what} abandoned — the run was aborted "
            "after a peer failure",
            diagnostics=[
                RankDiagnostics(
                    rank=rank,
                    phase=phase,
                    detail="woken by the run's abort flag while blocked",
                )
            ],
        )

    def raise_failure(self, runtimes) -> None:
        """Raise the recorded failure the caller should see, if any."""
        # Application crashes take precedence over CommunicationErrors:
        # a dead rank usually *causes* its peers' receive timeouts, and
        # the root cause is what the caller should see.
        for rank, error in sorted(self.failures, key=lambda f: f[0]):
            if isinstance(error, CommunicationError):
                continue
            raise RankCrashError(
                f"rank {rank} failed: {error!r}",
                diagnostics=[
                    RankDiagnostics(
                        rank=rank,
                        phase=runtimes[rank].phase,
                        detail=f"{type(error).__name__}: {error}",
                        trace_tail=trace_tail(runtimes[rank].trace),
                    )
                ],
            ) from error
        if self.failures:
            # Typed failures travel unchanged.  The first rank to fail
            # decides what the caller sees: every later one was woken
            # by the abort that failure raised.
            raise self.failures[0][1]

    def run(
        self,
        node_main: Callable[[NodeRuntime], None],
        make_runtime: Callable[[int, "Machine"], NodeRuntime],
    ) -> List[RankResult]:
        """Execute ``node_main`` on every rank; returns per-rank results."""
        runtimes = [make_runtime(rank, self) for rank in range(self.nprocs)]

        def runner(rank: int) -> None:
            try:
                node_main(runtimes[rank])
            except BaseException as exc:  # surface to the caller
                self.fail(rank, exc)

        threads = [
            threading.Thread(target=runner, args=(rank,), daemon=True)
            for rank in range(self.nprocs)
        ]
        deadline = time.monotonic() + self.run_timeout_s
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        stuck = [
            rank
            for rank, thread in enumerate(threads)
            if thread.is_alive()
        ]
        if stuck:
            raise RunTimeoutError(
                "SPMD run did not terminate within "
                f"{self.run_timeout_s:g}s",
                diagnostics=[
                    RankDiagnostics(
                        rank=rank,
                        phase=runtimes[rank].phase,
                        detail="rank thread still running at the deadline",
                        trace_tail=trace_tail(runtimes[rank].trace),
                    )
                    for rank in stuck
                ],
            )
        self.raise_failure(runtimes)
        return [
            RankResult(
                rt.rank, rt.arrays, rt.scalars, rt.trace, rt.env
            )
            for rt in runtimes
        ]
