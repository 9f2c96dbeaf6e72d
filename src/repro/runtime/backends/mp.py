"""``mp`` backend: one OS process per rank — a real shared-nothing run.

This is the closest substitute we have for the paper's message-passing
testbed (a 64-node IBM SP-2): every rank is a separate interpreter with
its own heap, receives genuinely block, collectives are binomial trees of
point-to-point messages, and the reported times are measured wall-clock,
not LogGP replay.  The optimizations the paper motivates by *copy* and
*overlap* behavior (in-place communication §3.3, loop splitting Figure 4)
are therefore observable here as real time differences.

Transport
---------

Each rank owns one inbound ``multiprocessing.Queue`` carrying small
control tuples.  Message *payloads* (contiguous float64 vectors) travel
through single-producer/single-consumer ring buffers carved out of one
``multiprocessing.shared_memory`` segment — one ring per ordered rank
pair, header ``[head:u64][tail:u64]`` followed by the data area.  The
sender writes the payload **directly from an array view** into the ring
(the ring write is the transfer — no staging ``tobytes()`` copy) and
advances ``tail``; the receiver consumes in control-message order through
:meth:`_ShmRing.read_view`, which returns a **zero-copy read-only numpy
view into the segment** whenever the payload does not wrap around the
ring boundary; ``head`` advances only after the receiver has scattered
out of the view (deferred release).  When a ring lacks space the payload
falls back to pickling through the control queue, so correctness never
depends on ring capacity.  Collective partials always use the pickle
path (they are single scalars) which keeps ring traffic strictly FIFO
per pair.

Failure behavior: a rank that raises ships a :class:`RankDiagnostics`
through the result queue and the parent terminates the survivors
(``terminate`` → ``join`` → ``kill`` escalation, so a wedged worker never
leaks); a deadlocked receive times out after
``RuntimeOptions.recv_timeout_s``.  The caller always sees the *typed*
failure — :class:`RankCrashError` (with negative exitcodes decoded to
signal names), :class:`RecvTimeoutError`, :class:`RunTimeoutError`, or
:class:`LaunchError` — never a hang, and the shared-memory segment is
unlinked on every exit path.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import queue as queue_mod
import struct
import time
import traceback
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    CommunicationError,
    LaunchError,
    RankCrashError,
    RankDiagnostics,
    RecvTimeoutError,
    RunTimeoutError,
    decode_exitcode,
    trace_tail,
)
from ..faults import arm_runtime
from ..machine import RankResult
from ..sections import own_payload, pack_sections, scatter_sections
from .base import (
    ExecutionBackend,
    LaunchResult,
    LaunchSpec,
    RankBindings,
    RankTiming,
    node_code,
)
from ..noderuntime import NodeRuntimeBase

logger = logging.getLogger(__name__)

#: per-pair ring capacity (bytes, data area); total segment size is capped
#: so large rank counts degrade to the pickle path instead of exhausting
#: /dev/shm.
DEFAULT_RING_BYTES = 1 << 18
_TOTAL_SHM_CAP = 1 << 26
_RING_HEADER = 16

_COLL_UP = "__coll_up__"
_COLL_DOWN = "__coll_dn__"


def _noop_release() -> None:
    pass


def _ring_bytes_for(nprocs: int, requested: int) -> int:
    per_pair_cap = max(4096, _TOTAL_SHM_CAP // max(1, nprocs * nprocs))
    return min(requested, per_pair_cap)


class _ShmRing:
    """Single-producer/single-consumer byte ring inside a shm slice.

    ``head`` and ``tail`` are monotonically increasing byte counters; the
    writer only advances ``tail``, the reader only advances ``head``, and
    every payload is announced through the control queue *after* the write
    completes, so no locking is needed.

    The reader keeps a private ``_cursor`` ahead of the shared ``head``:
    :meth:`read_view` hands out views at the cursor, and ``head`` only
    catches up in :meth:`advance` once the consumer is done with the
    view.  The writer therefore sees a conservative ``head`` and at worst
    falls back to the pickle path while a view is outstanding — it can
    never overwrite bytes still being read.
    """

    def __init__(self, view: memoryview):
        self.view = view
        self.capacity = len(view) - _RING_HEADER
        self._cursor: int = 0

    def _head(self) -> int:
        return struct.unpack_from("<Q", self.view, 0)[0]

    def _tail(self) -> int:
        return struct.unpack_from("<Q", self.view, 8)[0]

    def try_write(self, payload) -> bool:
        """Write ``payload`` (any C-contiguous buffer) if space allows."""
        payload = memoryview(payload).cast("B")
        nbytes = len(payload)
        head, tail = self._head(), self._tail()
        if nbytes == 0 or nbytes > self.capacity - (tail - head):
            return False
        pos = tail % self.capacity
        first = min(nbytes, self.capacity - pos)
        base = _RING_HEADER
        self.view[base + pos : base + pos + first] = payload[:first]
        if first < nbytes:
            self.view[base : base + nbytes - first] = payload[first:]
        struct.pack_into("<Q", self.view, 8, tail + nbytes)
        return True

    def read_view(self, nbytes: int):
        """Next ``nbytes`` as a float64 array; zero-copy when possible.

        Returns ``(values, zero_copy)``.  When the payload is contiguous
        in the ring, ``values`` is a read-only view straight into shared
        memory (``zero_copy=True``) and stays valid until
        :meth:`advance`; when it wraps the segment boundary the two spans
        are assembled into an owned array (``zero_copy=False``).
        """
        pos = self._cursor % self.capacity
        first = min(nbytes, self.capacity - pos)
        base = _RING_HEADER
        if first == nbytes:
            values = np.frombuffer(
                self.view[base + pos : base + pos + nbytes],
                dtype=np.float64,
            )
            values.flags.writeable = False
            zero_copy = True
        else:
            values = np.empty(nbytes // 8, dtype=np.float64)
            raw = values.view(np.uint8)
            raw[:first] = np.frombuffer(
                self.view[base + pos : base + pos + first], dtype=np.uint8
            )
            raw[first:] = np.frombuffer(
                self.view[base : base + nbytes - first], dtype=np.uint8
            )
            zero_copy = False
        self._cursor += nbytes
        return values, zero_copy

    def advance(self, nbytes: int) -> None:
        """Release ``nbytes`` consumed via :meth:`read_view`."""
        struct.pack_into("<Q", self.view, 0, self._head() + nbytes)

    def release(self) -> None:
        self.view.release()


class _Transport:
    """Per-worker view of the queues + shared-memory rings."""

    def __init__(
        self,
        rank: int,
        nprocs: int,
        queues,
        shm_buf: memoryview,
        ring_bytes: int,
        recv_timeout_s: float,
    ):
        self.rank = rank
        self.nprocs = nprocs
        self.queues = queues
        self.recv_timeout_s = recv_timeout_s
        self.shm_fallbacks = 0
        slot = ring_bytes + _RING_HEADER
        self._rings_out: Dict[int, _ShmRing] = {}
        self._rings_in: Dict[int, _ShmRing] = {}
        for other in range(nprocs):
            if other == rank:
                continue
            out_off = (rank * nprocs + other) * slot
            in_off = (other * nprocs + rank) * slot
            self._rings_out[other] = _ShmRing(
                shm_buf[out_off : out_off + slot]
            )
            self._rings_in[other] = _ShmRing(
                shm_buf[in_off : in_off + slot]
            )
        self._pending_user: Dict[int, deque] = {
            r: deque() for r in range(nprocs)
        }
        self._pending_internal: Dict[int, deque] = {
            r: deque() for r in range(nprocs)
        }

    # -- sending ----------------------------------------------------------------

    def send_user(self, dest: int, tag, meta, payload, owned: bool) -> str:
        """Ship a contiguous float64 ``payload`` with its ``meta``.

        The ring write moves bytes straight out of ``payload`` (which may
        be a view into the sender's array — the write completes before we
        return, so aliasing is safe).  Only the pickle fallback needs an
        owned snapshot, because ``Queue.put`` serializes asynchronously
        in a feeder thread; pass ``owned=True`` when ``payload`` is
        already a private staging buffer.  Returns ``'shm'`` or
        ``'pkl'``.
        """
        nbytes = payload.nbytes
        if nbytes and self._rings_out[dest].try_write(payload):
            self.queues[dest].put(
                ("shm", self.rank, tag, meta, payload.size)
            )
            return "shm"
        if nbytes:
            self.shm_fallbacks += 1
        if not owned:
            payload = payload.copy()
        self.queues[dest].put(("pkl", self.rank, tag, meta, payload))
        return "pkl"

    def send_internal(self, dest: int, tag, values) -> None:
        self.queues[dest].put(("int", self.rank, tag, None, list(values)))

    # -- receiving --------------------------------------------------------------

    def occupancy(self) -> Dict[int, int]:
        """Unread bytes sitting in each inbound ring, by source rank."""
        return {
            src: ring._tail() - ring._head()
            for src, ring in self._rings_in.items()
        }

    def _pump(self, want_tag, want_src) -> None:
        """Move one inbound control message into its pending stash."""
        try:
            msg = self.queues[self.rank].get(timeout=self.recv_timeout_s)
        except queue_mod.Empty:
            raise RecvTimeoutError(
                f"rank {self.rank} timed out receiving {want_tag!r} "
                f"from {want_src} after {self.recv_timeout_s:g}s",
                diagnostics=[
                    RankDiagnostics(
                        rank=self.rank,
                        phase="recv",
                        detail=(
                            f"blocked on tag {want_tag!r} from rank "
                            f"{want_src}"
                        ),
                        ring_occupancy=self.occupancy(),
                    )
                ],
            ) from None
        kind, src = msg[0], msg[1]
        if kind == "int":
            self._pending_internal[src].append(msg)
        else:
            self._pending_user[src].append(msg)

    def recv_user(self, src: int, tag):
        """Next user message from ``src``.

        Returns ``(tag, meta, values, release, zero_copy)``; ``values``
        is read-only and — when ``zero_copy`` — a view into the shared
        ring that must not be used after calling ``release()``.
        """
        pending = self._pending_user[src]
        while not pending:
            self._pump(tag, src)
        kind, _src, got_tag, meta, payload = pending.popleft()
        if kind == "shm":
            ring = self._rings_in[src]
            nbytes = 8 * payload
            values, zero_copy = ring.read_view(nbytes)
            return (
                got_tag, meta, values,
                lambda: ring.advance(nbytes), zero_copy,
            )
        values = np.asarray(payload, dtype=np.float64)
        return got_tag, meta, values, _noop_release, False

    def recv_internal(self, src: int, tag):
        pending = self._pending_internal[src]
        while True:
            for i, msg in enumerate(pending):
                if msg[2] == tag:
                    del pending[i]
                    return msg[4]
            self._pump(tag, src)

    def release(self) -> None:
        for ring in self._rings_out.values():
            ring.release()
        for ring in self._rings_in.values():
            ring.release()


class MPNodeRuntime(NodeRuntimeBase):
    """The multiprocess-worker implementation of the runtime protocol."""

    #: each rank owns its interpreter, so ``kill`` faults may deliver a
    #: real signal and the parent sees a negative exitcode.
    out_of_process = True

    def __init__(
        self,
        transport: _Transport,
        rank: int,
        nprocs: int,
        env: Dict[str, int],
        arrays: Dict[str, np.ndarray],
        lbounds: Dict[str, Tuple[int, ...]],
        scalars: Dict[str, float],
    ):
        super().__init__(rank, nprocs, env, arrays, lbounds, scalars)
        self.transport = transport
        self.comm_wall_s = 0.0
        self.per_event_s: List[float] = []
        self._coll_seq = 0

    def _clocked(self, start: float) -> None:
        elapsed = time.perf_counter() - start
        self.comm_wall_s += elapsed
        self.per_event_s.append(elapsed)

    # -- communication ----------------------------------------------------------

    def send(self, dest, tag, values, indices=None, inplace=False) -> None:
        start = time.perf_counter()
        data, copied = own_payload(values)
        nbytes = data.nbytes
        self.trace.send(dest, tag, nbytes, 0 if inplace else nbytes)
        self.trace.data_copied(copied)
        self.transport.send_user(dest, tag, indices, data, owned=True)
        self._clocked(start)

    def recv(self, src, tag, inplace=False):
        start = time.perf_counter()
        got_tag, indices, values, release, _zero_copy = (
            self.transport.recv_user(src, tag)
        )
        try:
            if got_tag != tag:
                raise CommunicationError(
                    f"rank {self.rank}: expected {tag!r} from {src}, "
                    f"got {got_tag!r}"
                )
            # Forced copy: ``values`` may be a view into the shared ring
            # that dies at release(), and the caller may hold the result
            # indefinitely.  One vectorized copy, no per-element list.
            data = np.array(values, dtype=np.float64)
        finally:
            release()
        nbytes = data.nbytes
        self.trace.recv(src, tag, nbytes, 0 if inplace else nbytes)
        self.trace.data_copied(nbytes)
        self._clocked(start)
        return indices, data

    def send_section(
        self, dest, tag, name, sections, inplace=False
    ) -> None:
        start = time.perf_counter()
        # The ring write consumes the payload before we return, so a
        # zero-copy view into the array is safe here (unlike the
        # in-process machines).
        payload, copied, viewed = pack_sections(
            self.arrays[name], self.lbounds[name], sections,
            force_copy=False,
        )
        nbytes = payload.nbytes
        self.trace.send(dest, tag, nbytes, 0 if inplace else nbytes)
        path = self.transport.send_user(
            dest, tag, sections, payload, owned=copied > 0
        )
        if path == "shm" and copied == 0:
            self.trace.data_viewed(viewed)
        else:
            self.trace.data_copied(nbytes)
        self._clocked(start)

    def recv_section(self, src, tag, name, inplace=False, count=None) -> None:
        start = time.perf_counter()
        got_tag, sections, values, release, zero_copy = (
            self.transport.recv_user(src, tag)
        )
        try:
            if got_tag != tag:
                raise CommunicationError(
                    f"rank {self.rank}: expected {tag!r} from {src}, "
                    f"got {got_tag!r}"
                )
            self._check_count(src, tag, values.size, count)
            nbytes = values.nbytes
            self.trace.recv(src, tag, nbytes, 0 if inplace else nbytes)
            scatter_sections(
                self.arrays[name], self.lbounds[name], sections, values
            )
        finally:
            release()
        if zero_copy:
            self.trace.data_viewed(nbytes)
        else:
            self.trace.data_copied(nbytes)
        self._clocked(start)

    def allreduce(self, op: str, value: float) -> float:
        self.trace.collective("allreduce", 8)
        ops = {
            "+": lambda a, b: a + b,
            "max": lambda a, b: a if a >= b else b,
            "min": lambda a, b: a if a <= b else b,
        }
        return self._tree_combine(value, ops[op])

    def barrier(self) -> None:
        self.trace.collective("barrier", 0)
        self._tree_combine(0.0, lambda a, b: 0.0)

    def _tree_combine(self, value, op2: Callable) -> float:
        """Binomial-tree reduce to rank 0, then tree broadcast back."""
        start = time.perf_counter()
        seq = self._coll_seq
        self._coll_seq += 1
        up = (_COLL_UP, seq)
        down = (_COLL_DOWN, seq)
        rank, nprocs, tr = self.rank, self.nprocs, self.transport
        step = 1
        while step < nprocs:
            if rank % (2 * step) == step:
                tr.send_internal(rank - step, up, [value])
                break
            partner = rank + step
            if partner < nprocs:
                value = op2(value, tr.recv_internal(partner, up)[0])
            step *= 2
        steps = []
        step = 1
        while step < nprocs:
            steps.append(step)
            step *= 2
        for step in reversed(steps):
            if rank % (2 * step) == step:
                value = tr.recv_internal(rank - step, down)[0]
            elif rank % (2 * step) == 0 and rank + step < nprocs:
                tr.send_internal(rank + step, down, [value])
        self._clocked(start)
        return value


_SEGMENT_SEQ = itertools.count()


def shm_prefix() -> str:
    """Name prefix of the ring segments this process creates.

    Python's default ``psm_<random>`` names are indistinguishable from any
    other ``SharedMemory`` user on the host; a pid-scoped prefix lets a
    leak check count only this process's segments."""
    return f"repro_{os.getpid()}_"


def _create_shm(size: int):
    """A fresh segment named ``repro_<pid>_<n>``; a name left behind by an
    earlier process with the same pid is skipped, never reused."""
    from multiprocessing import shared_memory

    while True:
        name = f"{shm_prefix()}{next(_SEGMENT_SEQ)}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except FileExistsError:
            continue


def _attach_shm(name: str):
    """Attach the parent's segment without adopting cleanup duties.

    Attaching registers the segment with this process's resource tracker
    on CPython < 3.13; under the ``spawn`` start method each child owns a
    *separate* tracker which would then warn about (and unlink!) a
    segment the parent still owns.  Under ``fork`` the tracker process is
    shared and registration is idempotent, so unregistering here would
    instead drop the parent's registration — hence the gate.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method(allow_none=True) != "fork":
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # tracker internals vary; never fail the rank
            pass
    return shm


def _worker_main(
    rank: int,
    spec: LaunchSpec,
    queues,
    result_queue,
    shm_name: str,
    ring_bytes: int,
) -> None:
    shm = None
    transport = None
    runtime = None
    try:
        shm = _attach_shm(shm_name)
        transport = _Transport(
            rank,
            spec.nprocs,
            queues,
            shm.buf,
            ring_bytes,
            spec.options.recv_timeout_s,
        )
        bindings: RankBindings = spec.bindings[rank]
        node_main = ExecutionBackend.load_node_main(spec.source)
        arrays, scalars = ExecutionBackend.allocate_state(bindings)
        runtime = MPNodeRuntime(
            transport,
            rank,
            spec.nprocs,
            dict(bindings.env),
            arrays,
            bindings.array_lbounds,
            scalars,
        )
        runtime.member_fns = ExecutionBackend.member_fns(
            spec.fallback_sets
        )
        runtime.inplace = dict(bindings.inplace)
        arm_runtime(runtime, spec.options.fault_plan)
        start = time.perf_counter()
        node_main(runtime)
        wall = time.perf_counter() - start
        timing = RankTiming(
            rank, wall, runtime.comm_wall_s, runtime.per_event_s
        )
        result_queue.put(
            (
                "ok",
                rank,
                runtime.arrays,
                runtime.scalars,
                runtime.trace,
                runtime.env,
                timing,
            )
        )
    except BaseException as exc:
        diag = RankDiagnostics(
            rank=rank,
            phase=getattr(runtime, "phase", "startup"),
            detail=traceback.format_exc(limit=8),
            trace_tail=(
                trace_tail(runtime.trace) if runtime is not None else []
            ),
            ring_occupancy=(
                transport.occupancy() if transport is not None else {}
            ),
        )
        kind = "timeout" if isinstance(exc, RecvTimeoutError) else "crash"
        result_queue.put(
            ("err", rank, kind, f"{type(exc).__name__}: {exc}", diag)
        )
    finally:
        if transport is not None:
            transport.release()
        if shm is not None:
            shm.close()


class MultiprocessBackend(ExecutionBackend):
    """True multiprocess SPMD execution (one interpreter per rank)."""

    name = "mp"

    def __init__(self, ring_bytes: int = DEFAULT_RING_BYTES):
        self.ring_bytes = ring_bytes

    def launch(self, spec: LaunchSpec) -> LaunchResult:
        ctx = multiprocessing.get_context()
        nprocs = spec.nprocs
        ring_bytes = _ring_bytes_for(nprocs, self.ring_bytes)
        slot = ring_bytes + _RING_HEADER
        shm_size = max(1, nprocs * nprocs * slot)
        plan = spec.options.fault_plan
        if plan is not None and plan.wants_shm_alloc_failure():
            raise LaunchError(
                "injected shared-memory allocation failure "
                f"({shm_size} bytes requested; fault plan seed "
                f"{plan.seed})"
            )
        try:
            shm = _create_shm(shm_size)
        except OSError as exc:
            raise LaunchError(
                f"shared-memory allocation of {shm_size} bytes failed: "
                f"{exc}"
            ) from exc
        queues = [ctx.Queue() for _ in range(nprocs)]
        result_queue = ctx.Queue()
        procs = []
        launch_start = time.perf_counter()
        try:
            if ctx.get_start_method() == "fork":
                # Forked ranks inherit the compiled module; spawned ones
                # start from a fresh import and compile for themselves.
                node_code(spec.source)
            procs = [
                ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        spec,
                        queues,
                        result_queue,
                        shm.name,
                        ring_bytes,
                    ),
                    daemon=True,
                )
                for rank in range(nprocs)
            ]
            for proc in procs:
                proc.start()
            collected: Dict[int, tuple] = {}
            deadline = launch_start + spec.options.run_timeout_s
            error: Optional[CommunicationError] = None
            while len(collected) < nprocs:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    error = RunTimeoutError(
                        "SPMD run did not terminate within "
                        f"{spec.options.run_timeout_s:g}s "
                        f"({len(collected)}/{nprocs} ranks reported)",
                        diagnostics=[
                            RankDiagnostics(
                                rank=rank,
                                detail="rank never reported a result",
                                exitcode=procs[rank].exitcode,
                            )
                            for rank in range(nprocs)
                            if rank not in collected
                        ],
                    )
                    break
                try:
                    msg = result_queue.get(timeout=min(remaining, 0.25))
                except queue_mod.Empty:
                    error = self._dead_rank_error(procs, collected)
                    if error is not None:
                        break
                    continue
                if msg[0] == "err":
                    _, rank, kind, summary, diag = msg
                    cls = (
                        RecvTimeoutError
                        if kind == "timeout"
                        else RankCrashError
                    )
                    error = cls(
                        f"rank {rank} failed: {summary}",
                        diagnostics=[diag],
                    )
                    break
                collected[msg[1]] = msg
            if error is not None:
                raise error
            elapsed = time.perf_counter() - launch_start
            results = []
            timings = []
            for rank in range(nprocs):
                _, _, arrays, scalars, trace, env, timing = collected[rank]
                results.append(
                    RankResult(rank, arrays, scalars, trace, env)
                )
                timings.append(timing)
            return LaunchResult(self.name, results, timings, elapsed)
        finally:
            self._shutdown(procs, queues + [result_queue], shm)

    @staticmethod
    def _dead_rank_error(
        procs, collected
    ) -> Optional[RankCrashError]:
        """A typed error for the first uncollected rank whose process died.

        Negative exitcodes are deaths-by-signal and decode to the signal
        name (``-9`` → ``killed by SIGKILL``), so a rank lost to the OOM
        killer reads differently from one that called ``exit(1)``.
        """
        for rank, proc in enumerate(procs):
            if (
                rank not in collected
                and proc.exitcode is not None
                and proc.exitcode != 0
            ):
                return RankCrashError(
                    f"rank {rank} died: {decode_exitcode(proc.exitcode)}",
                    diagnostics=[
                        RankDiagnostics(
                            rank=rank,
                            detail=(
                                "process exited without reporting a "
                                "result"
                            ),
                            exitcode=proc.exitcode,
                        )
                    ],
                )
        return None

    @staticmethod
    def _shutdown(procs, all_queues, shm) -> None:
        """Reap workers and release IPC resources on every exit path.

        Escalation: ``terminate()`` (SIGTERM) → ``join(5s)`` →
        ``kill()`` (SIGKILL) for anything still alive → final join.  A
        rank that survives SIGKILL (unkillable D-state) is logged and
        abandoned rather than hanging the caller forever.  Queues are
        drained before closing so worker feeder threads never pin their
        buffers, and the shared-memory segment is always unlinked.
        """
        try:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                if proc.pid is not None:
                    proc.join(timeout=5.0)
            stubborn = [proc for proc in procs if proc.is_alive()]
            for proc in stubborn:
                proc.kill()
            for proc in stubborn:
                proc.join(timeout=2.0)
            for rank, proc in enumerate(procs):
                if proc.is_alive():
                    logger.warning(
                        "rank %d (pid %s) survived SIGKILL; leaking the "
                        "process",
                        rank,
                        proc.pid,
                    )
            for q in all_queues:
                try:
                    while True:
                        q.get_nowait()
                except (queue_mod.Empty, OSError, ValueError):
                    pass
                q.close()
                q.cancel_join_thread()
        finally:
            shm.close()
            shm.unlink()
