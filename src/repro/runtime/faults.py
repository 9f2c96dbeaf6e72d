"""Deterministic fault injection for SPMD runs.

A :class:`FaultPlan` is a picklable, *seeded* description of the faults
to provoke during a launch: dropped / delayed / duplicated messages, a
rank crashing (softly, or killed by a real signal) at the N-th send /
receive / collective / work step, shared-memory allocation failure at
launch, and per-rank slow-rank jitter.  The plan travels inside the
:class:`~repro.runtime.backends.base.LaunchSpec` (via
``RuntimeOptions.fault_plan``), so every backend — in-process threads,
the sequential scheduler, and out-of-process ``mp`` workers — injects
the *same* schedule.  All randomness (jitter magnitudes, backoff) is
derived from ``(seed, rank, op index)``, so a chaos run replays
byte-identically from its seed: ``FaultPlan.parse(spec, seed)`` on the
CLI (``--fault-spec`` / ``--fault-seed``) reproduces a failure exactly.

Spec grammar (semicolon-separated faults, colon-separated fields)::

    kind[:rank=R][:op=OP][:n=N][:ms=MS][:attempts=A]

    kinds: drop | delay | dup | crash | kill | shm-alloc | jitter
         | worker-crash | worker-stall
    ops:   send | recv | collective | step | compile | any

``drop``/``dup`` apply to sends; ``crash``/``kill`` fire at the N-th
matching op of the targeted rank; ``jitter`` sleeps a seeded random
amount before *every* matching op; ``shm-alloc`` makes the ``mp``
backend's launch-time shared-memory allocation fail (other backends
ignore it).  ``worker-crash``/``worker-stall`` target the compile worker
pool (DESIGN §13): ``rank`` selects a pool slot, ``op`` is implicitly
``compile`` (one fires per request the worker serves), and the worker
SIGKILLs itself / sleeps ``ms`` past its deadline at the N-th compile —
the SPMD backends ignore them.  ``attempts=A`` limits a fault to the
first ``A`` supervised launch attempts (for the pool: the first ``A``
worker generations in a slot) — the standard way to build a *transient*
fault that a :class:`~repro.runtime.harness.RetryPolicy` recovers from.
"""

from __future__ import annotations

import os
import random
import signal as signal_mod
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

#: ops a fault can target; "any" matches all of them.  ``compile`` is the
#: compile-worker-pool op: one "compile" fires per request a pool worker
#: serves (the SPMD runtime never emits it).
FAULT_OPS = ("send", "recv", "collective", "step", "compile", "any")
#: recognized fault kinds.  ``worker-crash``/``worker-stall`` target the
#: compile worker pool (DESIGN §13): the worker process SIGKILLs itself /
#: sleeps past its deadline at the N-th matching compile, exercising the
#: supervisor's respawn, deadline-kill, and quarantine paths.
FAULT_KINDS = (
    "drop", "delay", "dup", "crash", "kill", "shm-alloc", "jitter",
    "worker-crash", "worker-stall",
)

#: kinds interpreted by the compile worker pool rather than the SPMD
#: runtime (other backends ignore them, like ``shm-alloc`` elsewhere).
WORKER_FAULT_KINDS = ("worker-crash", "worker-stall")

#: method name → op category, shared by phase tracking and injection.
OP_OF_METHOD = {
    "send_section": "send",
    "recv_section": "recv",
    "allreduce": "collective",
    "work": "step",
}


class InjectedFault(Exception):
    """Raised inside a rank by a ``crash`` fault (or ``kill`` in-process).

    Deliberately *not* a ``CommunicationError``: an injected crash is
    indistinguishable from a genuine application crash, so it surfaces
    through the same collection path and becomes a
    :class:`~repro.runtime.errors.RankCrashError`.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what to do, to whom, and when."""

    kind: str
    rank: Optional[int] = None  # None targets every rank
    op: str = "any"
    n: int = 1  # fire at the Nth matching op (1-based)
    delay_ms: float = 10.0  # for delay / jitter
    attempts: Optional[int] = None  # active while attempt < attempts

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.op not in FAULT_OPS:
            raise ValueError(
                f"unknown fault op {self.op!r}; known: {', '.join(FAULT_OPS)}"
            )
        if self.kind in ("drop", "dup") and self.op not in ("send", "any"):
            raise ValueError(f"{self.kind} faults only apply to sends")
        if (self.kind in WORKER_FAULT_KINDS
                and self.op not in ("compile", "any")):
            raise ValueError(
                f"{self.kind} faults only apply to compile-pool requests "
                "(op=compile)"
            )
        if self.n < 1:
            raise ValueError("fault n is 1-based; n >= 1 required")

    def matches_rank(self, rank: int) -> bool:
        return self.rank is None or self.rank == rank

    def matches_op(self, op: str) -> bool:
        return self.op == "any" or self.op == op


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable schedule of faults for one launch."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    @staticmethod
    def parse(text: str, seed: int = 0) -> "FaultPlan":
        """Parse the ``--fault-spec`` grammar (see module docstring)."""
        faults: List[FaultSpec] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            head, *fields = chunk.split(":")
            kwargs = {}
            for fld in fields:
                key, _, value = fld.partition("=")
                key = key.strip()
                if not value:
                    raise ValueError(
                        f"fault field {fld!r} expects key=value"
                    )
                if key == "rank":
                    kwargs["rank"] = int(value)
                elif key == "op":
                    kwargs["op"] = value.strip()
                elif key == "n":
                    kwargs["n"] = int(value)
                elif key == "ms":
                    kwargs["delay_ms"] = float(value)
                elif key == "attempts":
                    kwargs["attempts"] = int(value)
                else:
                    raise ValueError(f"unknown fault field {key!r}")
            faults.append(FaultSpec(head.strip(), **kwargs))
        return FaultPlan(seed=seed, faults=tuple(faults))

    def for_attempt(self, attempt: int) -> "FaultPlan":
        """The plan as seen by supervised launch attempt ``attempt``.

        Faults carrying ``attempts=A`` only fire while ``attempt < A`` —
        this is how a plan expresses *transient* failures that a retry
        outlives.  The seed is attempt-independent so surviving faults
        keep identical schedules across attempts.
        """
        return replace(
            self,
            faults=tuple(
                f
                for f in self.faults
                if f.attempts is None or attempt < f.attempts
            ),
        )

    def wants_shm_alloc_failure(self) -> bool:
        return any(f.kind == "shm-alloc" for f in self.faults)

    def injector(self, rank: int) -> "FaultInjector":
        return FaultInjector(self, rank)

    def schedule(self, rank: int, nops: int = 32) -> Tuple:
        """Deterministic preview of what fires on ``rank``.

        Simulates ``nops`` consecutive ops of every category and returns
        a tuple of ``(op, index, kind, delay_s)`` entries.  Two plans
        with the same seed and faults produce byte-identical schedules —
        the property the chaos tests pin down with ``pickle.dumps``.
        """
        probe = self.injector(rank)
        fired = []
        for op in ("send", "recv", "collective", "step", "compile"):
            for index in range(1, nops + 1):
                for action, delay_s in probe.preview(op):
                    fired.append((op, index, action, delay_s))
        return tuple(fired)


def _rank_seed(seed: int, rank: int) -> str:
    return f"faultplan:{seed}:{rank}"


class FaultInjector:
    """Per-rank executor of a :class:`FaultPlan`.

    ``arm(runtime)`` wraps the runtime's communication and accounting
    methods in place, so injection works identically on every backend
    without the backends knowing about faults at all.
    """

    def __init__(self, plan: FaultPlan, rank: int):
        self.plan = plan
        self.rank = rank
        self.faults = [f for f in plan.faults if f.matches_rank(rank)]
        self._counts = {op: 0 for op in FAULT_OPS}
        self._jitter_rng = random.Random(_rank_seed(plan.seed, rank))

    # -- arming -----------------------------------------------------------------

    def arm(self, runtime) -> None:
        """Wrap ``runtime``'s op methods with injection points."""
        runtime.faults = self
        for name, op in OP_OF_METHOD.items():
            original = getattr(runtime, name)
            setattr(
                runtime, name, self._wrap(runtime, original, op)
            )

    def _wrap(self, runtime, original, op):
        def injected(*args, **kwargs):
            actions = self._fire(op)
            for action, delay_s in actions:
                if action in ("delay", "jitter"):
                    time.sleep(delay_s)
                elif action == "crash":
                    runtime.phase = op
                    raise InjectedFault(
                        f"injected crash on rank {self.rank} at {op} "
                        f"#{self._counts[op]}"
                    )
                elif action == "kill":
                    runtime.phase = op
                    self._hard_kill(runtime, op)
                elif action == "drop":
                    return None  # message silently lost
            if any(action == "dup" for action, _ in actions):
                original(*args, **kwargs)
            return original(*args, **kwargs)

        return injected

    def _hard_kill(self, runtime, op) -> None:
        """Die by a real signal when the rank owns its process.

        In-process backends (threads / inproc-seq) share the caller's
        interpreter, so a genuine ``SIGKILL`` would take the whole test
        process down; there the fault degrades to an injected crash —
        the strongest failure that backend can express.
        """
        if getattr(runtime, "out_of_process", False):
            os.kill(os.getpid(), signal_mod.SIGKILL)
        raise InjectedFault(
            f"injected kill on rank {self.rank} at {op} "
            f"#{self._counts[op]} (in-process: degraded to crash)"
        )

    # -- firing -----------------------------------------------------------------

    def _fire(self, op: str):
        """Advance the op counter; return ``(action, delay_s)`` to apply."""
        self._counts[op] += 1
        count = self._counts[op]
        actions = []
        for fault in self.faults:
            if not fault.matches_op(op):
                continue
            if fault.kind in WORKER_FAULT_KINDS and op != "compile":
                # Pool faults fire only on pool compiles, even under
                # op=any — an SPMD send must not consume their trigger.
                continue
            if fault.kind == "jitter":
                actions.append(
                    (
                        "jitter",
                        self._jitter_rng.uniform(0.0, fault.delay_ms / 1e3),
                    )
                )
            elif fault.kind == "shm-alloc":
                continue  # launch-time fault; nothing to do per-op
            elif count == fault.n:
                delay = (
                    fault.delay_ms / 1e3
                    if fault.kind in ("delay", "worker-stall")
                    else 0.0
                )
                actions.append((fault.kind, delay))
        return actions

    def preview(self, op: str):
        """Like the firing path, but named for schedule previews."""
        return self._fire(op)


def arm_runtime(runtime, plan: Optional[FaultPlan]) -> None:
    """Attach ``plan``'s injector for ``runtime.rank`` (no-op when None)."""
    if plan is not None and plan.faults:
        plan.injector(runtime.rank).arm(runtime)


__all__ = [
    "FAULT_KINDS",
    "FAULT_OPS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "OP_OF_METHOD",
    "WORKER_FAULT_KINDS",
    "arm_runtime",
]
