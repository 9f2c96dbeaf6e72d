"""Execution traces recorded by node programs.

Each rank records an ordered list of events carrying *abstract* costs
(element counts, byte counts) rather than wall-clock times; the cost model
(:mod:`repro.runtime.cost`) replays them through a LogGP-style machine
model to predict execution times.  This separation substitutes for the
paper's IBM SP-2: correctness comes from really executing the SPMD code,
performance *shape* from the replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union


@dataclass
class ComputeEvent:
    """``amount`` abstract work units (weighted statement executions)."""

    amount: float


@dataclass
class SendEvent:
    dest: int
    tag: object
    bytes: int
    copied_bytes: int  # 0 when sent in place


@dataclass
class RecvEvent:
    src: int
    tag: object
    bytes: int
    copied_bytes: int  # 0 when referenced directly from the buffer


@dataclass
class CollectiveEvent:
    """A reduction/broadcast involving every rank (matched by index)."""

    kind: str  # 'allreduce' | 'broadcast'
    bytes: int


Event = Union[ComputeEvent, SendEvent, RecvEvent, CollectiveEvent]


@dataclass
class Trace:
    rank: int
    events: List[Event] = field(default_factory=list)

    # Aggregate statistics (filled as events are appended).
    compute_units: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    copies: int = 0
    buffer_checks: int = 0
    collectives: int = 0
    # Actual data-plane accounting (how payload bytes really moved, as
    # opposed to ``copies`` which carries the cost-model's §3.3 charge):
    # ``bytes_copied`` passed through an intermediate staging buffer,
    # ``bytes_viewed`` moved directly between array storage and the
    # transport via numpy views (zero staging copies).
    bytes_copied: int = 0
    bytes_viewed: int = 0
    # Compute-plane accounting: how the abstract work units were actually
    # executed.  ``flops_vectorized`` were performed by numpy strided-slice
    # kernels (one launch per loop piece), ``flops_scalar`` by the
    # interpreted per-point loop.  The LogGP ``compute_units`` charge is
    # the sum of both — the cost model is deliberately unaware of the
    # execution tier so Figure 7 shapes do not depend on it.
    flops_vectorized: float = 0.0
    flops_scalar: float = 0.0

    def compute(self, amount: float, vectorized: bool = False) -> None:
        if amount <= 0:
            return
        events = self.events
        if events and isinstance(events[-1], ComputeEvent):
            events[-1].amount += amount
        else:
            events.append(ComputeEvent(amount))
        self.compute_units += amount
        if vectorized:
            self.flops_vectorized += amount
        else:
            self.flops_scalar += amount

    def send(self, dest: int, tag, nbytes: int, copied: int) -> None:
        self.events.append(SendEvent(dest, tag, nbytes, copied))
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.copies += copied

    def recv(self, src: int, tag, nbytes: int, copied: int) -> None:
        self.events.append(RecvEvent(src, tag, nbytes, copied))
        self.copies += copied

    def data_copied(self, nbytes: int) -> None:
        self.bytes_copied += nbytes

    def data_viewed(self, nbytes: int) -> None:
        self.bytes_viewed += nbytes

    def collective(self, kind: str, nbytes: int) -> None:
        self.events.append(CollectiveEvent(kind, nbytes))
        self.collectives += 1

    def check(self, count: int = 1) -> None:
        self.buffer_checks += count


@dataclass
class RunStatistics:
    """Summary over all ranks, for reports and ablation benchmarks."""

    nprocs: int
    total_messages: int
    total_bytes: int
    total_copies: int
    total_checks: int
    max_compute: float
    total_compute: float
    #: actual staging copies vs zero-copy view traffic (see Trace).
    total_bytes_copied: int = 0
    total_bytes_viewed: int = 0
    #: compute-plane split of ``total_compute`` (see Trace).
    total_flops_vectorized: float = 0.0
    total_flops_scalar: float = 0.0
    #: scheduler observability from the ``taskgraph`` backend (steals,
    #: ready-queue depth, critical path, per-SCC seconds, plan shape);
    #: ``None`` for backends without a scheduler.  Attached by the
    #: harness after the launch, not derived from traces.
    scheduler: Optional[Dict[str, object]] = None

    @staticmethod
    def from_traces(traces: List[Trace]) -> "RunStatistics":
        return RunStatistics(
            nprocs=len(traces),
            total_messages=sum(t.messages_sent for t in traces),
            total_bytes=sum(t.bytes_sent for t in traces),
            total_copies=sum(t.copies for t in traces),
            total_checks=sum(t.buffer_checks for t in traces),
            max_compute=max((t.compute_units for t in traces), default=0.0),
            total_compute=sum(t.compute_units for t in traces),
            total_bytes_copied=sum(t.bytes_copied for t in traces),
            total_bytes_viewed=sum(t.bytes_viewed for t in traces),
            total_flops_vectorized=sum(t.flops_vectorized for t in traces),
            total_flops_scalar=sum(t.flops_scalar for t in traces),
        )
