"""Set-engine switchboard: the memo/profile gate, the arms, the profiler.

The compile pipeline is a sequence of integer-set operations, and compile
time is dominated by a handful of them (``split_disjoint`` →
``constraint_redundant`` → ``is_empty_conjunct`` for the paper's Figure 3/4
equations on 2-D (BLOCK,BLOCK) layouts).  Every such operation runs through
one function, :func:`gate`, which decides *memoize or compute* and *time or
not* from one per-thread record:

* a :class:`SetOpProfiler` (attached with :func:`profiled`) records, per
  operation, call counts, cumulative wall-clock seconds, the slowest single
  call, and log2-bucketed size histograms (conjunct counts for set-level
  ops, constraint counts for conjunct-level ops); named *event* counters
  track the algorithmic fast paths (GCD/interval emptiness pre-tests,
  syntactic redundancy hits, subsumption pruning);
* :func:`reference_arm` selects the two byte-identity reference arms —
  memo off (``CompilerOptions(caching="off")``) and presolve off.

All of it is per thread, so concurrent service compiles account (and A/B)
independently; snapshots merge for fleet-wide ``/stats``.  An instrumented
call pays one thread-local read; with no profiler attached there are no
clock reads.  Timings are *cumulative* (an op's seconds include the ops it
calls), like cProfile's cumtime; compare siblings, not parent to child.
This module imports nothing from the package.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter as _clock
from typing import Callable, Dict, Hashable, Iterator, Optional

__all__ = [
    "SetOpProfiler",
    "active_profiler",
    "gate",
    "presolve_on",
    "profiled",
    "record_event",
    "reference_arm",
]


class _Switches:
    """One thread's switches: attached profiler and reference-arm depths."""

    __slots__ = ("profiler", "memo_off", "presolve_off")

    def __init__(self):
        self.profiler: Optional["SetOpProfiler"] = None
        self.memo_off = self.presolve_off = 0


class _PerThread(threading.local):
    def __init__(self):  # runs once in every thread that touches it
        self.switches = _Switches()


_tls = _PerThread()


def _compute(key: Hashable, compute: Callable[[], object]):
    return compute()


def gate(
    op: Optional[str],
    compute: Callable[[], object],
    size_in: int = 0,
    size_of: Optional[Callable[[object], int]] = None,
    memo: Optional[Callable[[Hashable, Callable[[], object]], object]] = None,
    key: Hashable = None,
):
    """Run one set-engine operation: memoized unless the memo-off arm is
    on (then nothing is read, written or counted), timed — every call, hit
    or miss — if a profiler is attached.

    ``memo`` is a ``(key, compute) -> value`` lookup, an LRU's
    :meth:`~repro.cache.manager.LRUCache.memoize`; without one the
    operation is only timed, with ``op=None`` only memoized.  ``size_of``
    maps the result to its output size (``None``: no output histogram).
    """
    switches = _tls.switches
    if memo is None or switches.memo_off:
        memo = _compute
    profiler = switches.profiler
    if profiler is None or op is None:
        return memo(key, compute)
    start = _clock()
    result = memo(key, compute)
    profiler.record(
        op,
        _clock() - start,
        size_in,
        None if size_of is None else size_of(result),
    )
    return result


@contextmanager
def reference_arm(
    memo_off: bool = False, presolve_off: bool = False
) -> Iterator[None]:
    """Run the block on a byte-identity reference arm.

    ``memo_off`` bypasses every memo LRU (the ``caching="off"`` path);
    ``presolve_off`` turns the presolve engine off.  Re-entrant, and
    scoped to the *calling thread*: concurrent compiles in other threads
    are unaffected.
    """
    switches = _tls.switches
    switches.memo_off += memo_off
    switches.presolve_off += presolve_off
    try:
        yield
    finally:
        switches.memo_off -= memo_off
        switches.presolve_off -= presolve_off


def presolve_on() -> bool:
    """False inside ``reference_arm(presolve_off=True)`` on this thread."""
    return not _tls.switches.presolve_off


def active_profiler() -> Optional["SetOpProfiler"]:
    """The profiler attached to the calling thread, or ``None``."""
    return _tls.switches.profiler


@contextmanager
def profiled(
    profiler: Optional["SetOpProfiler"] = None,
) -> Iterator["SetOpProfiler"]:
    """``with profiled() as prof:`` — profile set ops on this thread."""
    if profiler is None:
        profiler = SetOpProfiler()
    switches = _tls.switches
    previous, switches.profiler = switches.profiler, profiler
    try:
        yield profiler
    finally:
        switches.profiler = previous


def record_event(name: str, n: int = 1) -> None:
    """Count a named event (fast-path hit, pruning, ...) if profiling."""
    profiler = _tls.switches.profiler
    if profiler is not None:
        profiler.count(name, n)


def _bucket(size: int) -> int:
    """Histogram bucket: the smallest power of two >= max(size, 1)."""
    return 1 << (max(size - 1, 0)).bit_length()


class _OpStats:
    """Counters for one operation."""

    __slots__ = (
        "calls", "seconds", "max_seconds",
        "size_in", "size_out", "max_in", "max_out",
    )

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.max_seconds = 0.0
        self.size_in: Dict[int, int] = {}
        self.size_out: Dict[int, int] = {}
        self.max_in = 0
        self.max_out = 0


class SetOpProfiler:
    """Accumulates per-op counters; attach with :func:`profiled`.

    Not thread-safe by design — one profiler per compiling thread; use
    :meth:`merge_snapshot` to aggregate across threads/compiles.
    """

    __slots__ = ("ops", "events")

    def __init__(self):
        self.ops: Dict[str, _OpStats] = {}
        self.events: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def record(
        self,
        op: str,
        seconds: float,
        size_in: int,
        size_out: Optional[int] = None,
    ) -> None:
        stats = self.ops.get(op)
        if stats is None:
            stats = self.ops[op] = _OpStats()
        stats.calls += 1
        stats.seconds += seconds
        if seconds > stats.max_seconds:
            stats.max_seconds = seconds
        bucket = _bucket(size_in)
        stats.size_in[bucket] = stats.size_in.get(bucket, 0) + 1
        if size_in > stats.max_in:
            stats.max_in = size_in
        if size_out is not None:
            bucket = _bucket(size_out)
            stats.size_out[bucket] = stats.size_out.get(bucket, 0) + 1
            if size_out > stats.max_out:
                stats.max_out = size_out

    def count(self, name: str, n: int = 1) -> None:
        self.events[name] = self.events.get(name, 0) + n

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dict of everything recorded so far."""
        ops = {}
        for name, stats in sorted(self.ops.items()):
            ops[name] = {
                "calls": stats.calls,
                "seconds": round(stats.seconds, 6),
                "max_seconds": round(stats.max_seconds, 6),
                "size_in": {
                    str(k): v for k, v in sorted(stats.size_in.items())
                },
                "size_out": {
                    str(k): v for k, v in sorted(stats.size_out.items())
                },
                "max_in": stats.max_in,
                "max_out": stats.max_out,
            }
        return {"ops": ops, "events": dict(sorted(self.events.items()))}

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict into this profiler (aggregation)."""
        for name, entry in (snapshot.get("ops") or {}).items():
            stats = self.ops.get(name)
            if stats is None:
                stats = self.ops[name] = _OpStats()
            stats.calls += entry.get("calls", 0)
            stats.seconds += entry.get("seconds", 0.0)
            stats.max_seconds = max(
                stats.max_seconds, entry.get("max_seconds", 0.0)
            )
            for key, value in (entry.get("size_in") or {}).items():
                bucket = int(key)
                stats.size_in[bucket] = stats.size_in.get(bucket, 0) + value
            for key, value in (entry.get("size_out") or {}).items():
                bucket = int(key)
                stats.size_out[bucket] = stats.size_out.get(bucket, 0) + value
            stats.max_in = max(stats.max_in, entry.get("max_in", 0))
            stats.max_out = max(stats.max_out, entry.get("max_out", 0))
        for name, value in (snapshot.get("events") or {}).items():
            self.events[name] = self.events.get(name, 0) + value

    def format_table(self, title: str = "set-engine profile") -> str:
        """Human-readable report (the ``--profile-sets`` output)."""
        lines = [title] if title else []
        lines.append(
            f"{'operation':24s} {'calls':>9s} {'seconds':>9s} "
            f"{'max ms':>8s} {'max in':>7s} {'max out':>8s}"
        )
        for name, stats in sorted(
            self.ops.items(), key=lambda kv: -kv[1].seconds
        ):
            lines.append(
                f"{name:24s} {stats.calls:9d} {stats.seconds:9.3f} "
                f"{stats.max_seconds * 1e3:8.2f} {stats.max_in:7d} "
                f"{stats.max_out:8d}"
            )
        interesting = [
            (name, stats) for name, stats in sorted(self.ops.items())
            if stats.size_in
        ]
        if interesting:
            lines.append("")
            lines.append("size distributions (log2 buckets: count at <= N)")
            for name, stats in interesting:
                dist = " ".join(
                    f"{k}:{v}" for k, v in sorted(stats.size_in.items())
                )
                lines.append(f"  {name:22s} in  {dist}")
                if stats.size_out:
                    dist = " ".join(
                        f"{k}:{v}" for k, v in sorted(stats.size_out.items())
                    )
                    lines.append(f"  {'':22s} out {dist}")
        if self.events:
            lines.append("")
            lines.append(f"{'event':40s} {'count':>10s}")
            for name, value in sorted(self.events.items()):
                lines.append(f"{name:40s} {value:10d}")
        return "\n".join(lines)
