"""LogGP-style cost-model replay of execution traces.

The model plays each rank's event list against a virtual clock:

* ``ComputeEvent(w)`` advances the rank's clock by ``w * flop_time``;
* ``SendEvent`` costs the sender ``o_send + copied_bytes * copy_per_byte``
  and makes the message available to the receiver at
  ``sender_clock + latency + bytes * per_byte``;
* ``RecvEvent`` blocks until the matching message is available, then costs
  ``o_recv + copied_bytes * copy_per_byte``;
* ``CollectiveEvent`` synchronizes all ranks (``max`` of clocks) and adds a
  logarithmic tree cost, matching how MPI reductions behave on a
  message-passing machine like the paper's IBM SP-2;
* ``buffer_checks`` add ``check_time`` each (the §3.4 buffer-access cost).

Default constants are loosely calibrated to the paper's platform class
(an SP-2-like machine: tens-of-microseconds latency, tens of MB/s
bandwidth, tens of MFLOPS per node) — the *ratios* are what shape the
speedup curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .trace import (
    CollectiveEvent,
    ComputeEvent,
    RecvEvent,
    SendEvent,
    Trace,
)


@dataclass
class CostModel:
    """Machine constants (seconds)."""

    flop_time: float = 2.0e-8        # per abstract work unit (~50 MFLOPS)
    latency: float = 40.0e-6         # end-to-end message latency (L)
    per_byte: float = 1.0 / 35.0e6   # 1/bandwidth (G): ~35 MB/s
    o_send: float = 15.0e-6          # sender CPU overhead per message
    o_recv: float = 15.0e-6          # receiver CPU overhead per message
    copy_per_byte: float = 1.0 / 180.0e6  # memcpy bandwidth for pack/unpack
    check_time: float = 5.0e-8       # one buffer-access ownership check

    def collective_cost(self, nprocs: int, nbytes: int) -> float:
        """Cost of a tree reduction/broadcast."""
        rounds = max(1, math.ceil(math.log2(max(nprocs, 2))))
        return rounds * (
            self.latency + self.o_send + self.o_recv
            + nbytes * self.per_byte
        )


@dataclass
class ReplayResult:
    time: float
    per_rank: List[float]
    comm_time: float  # aggregate time ranks spent blocked or in overheads


def replay(traces: List[Trace], model: CostModel = CostModel()) -> ReplayResult:
    """Predict the execution time of a traced run.

    Messages between a (sender, receiver, tag-insensitive) pair are matched
    in FIFO order, as the runtime's channels deliver them.
    """
    nprocs = len(traces)
    clocks = [0.0] * nprocs
    comm_time = 0.0
    # Message availability times, FIFO per (src, dest).
    available: Dict[Tuple[int, int], List[float]] = {}
    consumed: Dict[Tuple[int, int], int] = {}
    # Event cursors; collectives require global coordination, so we iterate
    # to a fixed point processing each rank as far as it can go.
    cursors = [0] * nprocs

    progress = True
    while progress:
        progress = False
        for rank, trace in enumerate(traces):
            while cursors[rank] < len(trace.events):
                event = trace.events[cursors[rank]]
                if isinstance(event, ComputeEvent):
                    clocks[rank] += event.amount * model.flop_time
                elif isinstance(event, SendEvent):
                    cost = (
                        model.o_send
                        + event.copied_bytes * model.copy_per_byte
                    )
                    clocks[rank] += cost
                    comm_time += cost
                    key = (rank, event.dest)
                    available.setdefault(key, []).append(
                        clocks[rank]
                        + model.latency
                        + event.bytes * model.per_byte
                    )
                elif isinstance(event, RecvEvent):
                    key = (event.src, rank)
                    index = consumed.get(key, 0)
                    queue = available.get(key, [])
                    if index >= len(queue):
                        break  # sender not processed far enough yet
                    consumed[key] = index + 1
                    before = clocks[rank]
                    arrival = queue[index]
                    clocks[rank] = max(clocks[rank], arrival) + (
                        model.o_recv
                        + event.copied_bytes * model.copy_per_byte
                    )
                    comm_time += clocks[rank] - before
                elif isinstance(event, CollectiveEvent):
                    break  # rendezvous handled below once all ranks arrive
                cursors[rank] += 1
                progress = True
        # Collective rendezvous: when every rank's next event is a
        # collective, synchronize them all.
        if all(
            cursors[r] < len(traces[r].events)
            and isinstance(traces[r].events[cursors[r]], CollectiveEvent)
            for r in range(nprocs)
        ):
            nbytes = max(
                traces[r].events[cursors[r]].bytes for r in range(nprocs)
            )
            before = list(clocks)
            sync = max(clocks)
            cost = CostModel.collective_cost(model, nprocs, nbytes)
            for r in range(nprocs):
                comm_time += sync - before[r] + cost
                clocks[r] = sync + cost
                cursors[r] += 1
            progress = True

    # Deadlock / imbalance check: all cursors must be at the end.
    for rank in range(nprocs):
        if cursors[rank] != len(traces[rank].events):
            raise RuntimeError(
                f"trace replay stuck at rank {rank}, event {cursors[rank]}"
                f"/{len(traces[rank].events)}: "
                f"{traces[rank].events[cursors[rank]]!r}"
            )
    # Buffer-check cost is accounted per rank at the end (checks are spread
    # through compute; adding them as a lump keeps replay simple and the
    # totals identical).
    for rank, trace in enumerate(traces):
        clocks[rank] += trace.buffer_checks * model.check_time
    return ReplayResult(max(clocks), clocks, comm_time)

