"""Runtime options: knobs for *executing* compiled programs.

These are deliberately separate from :class:`repro.core.options.CompilerOptions`
— compiler options change the generated code, runtime options change how a
given node program is launched (which backend, how many ranks, how long a
blocking receive may wait before the run is declared deadlocked).

The receive timeout can also be set process-wide through the
``REPRO_RECV_TIMEOUT_S`` environment variable; an explicit
:class:`RuntimeOptions` value always wins.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .faults import FaultPlan

#: Environment variable consulted for the default blocking-receive timeout.
RECV_TIMEOUT_ENV = "REPRO_RECV_TIMEOUT_S"

_FALLBACK_RECV_TIMEOUT_S = 60.0


def default_recv_timeout() -> float:
    """The blocking-receive timeout (seconds) from the environment.

    Falls back to 60 s when ``REPRO_RECV_TIMEOUT_S`` is unset or invalid:
    not a number, not positive, or not finite (a blocking ``get`` cannot
    wait forever; ``queue.get(timeout=inf)`` raises ``OverflowError``).
    """
    raw = os.environ.get(RECV_TIMEOUT_ENV)
    if raw is None:
        return _FALLBACK_RECV_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        return _FALLBACK_RECV_TIMEOUT_S
    return value if 0 < value < math.inf else _FALLBACK_RECV_TIMEOUT_S


@dataclass
class RuntimeOptions:
    """Execution knobs threaded through every backend.

    ``recv_timeout_s`` bounds how long a blocking receive or collective
    waits before surfacing :class:`~repro.runtime.machine.CommunicationError`
    (a deadlocked SPMD program must fail, not hang).  ``run_timeout_s``
    bounds the whole launch, covering ranks stuck outside communication.
    """

    backend: str = "threads"
    recv_timeout_s: float = None  # type: ignore[assignment]
    run_timeout_s: float = 600.0
    #: deterministic fault-injection schedule (chaos testing); ``None``
    #: runs clean.  Picklable, so it reaches out-of-process workers.
    fault_plan: Optional[FaultPlan] = None
    #: backends the supervisor may degrade to, in order, after the
    #: primary backend exhausts its retry budget (e.g.
    #: ``("threads", "inproc-seq")``).  Empty disables fallback.
    fallback_backends: Tuple[str, ...] = ()
    #: simulated per-message link latency in seconds.  Honored by the
    #: ``threads`` and ``taskgraph`` transports (a message becomes
    #: visible to its receiver only after the delay), so comm/compute
    #: overlap can be measured under identical communication cost on
    #: both backends.  Zero (default) preserves immediate delivery.
    comm_latency_s: float = 0.0
    #: worker-pool size for the ``taskgraph`` backend; ``None`` sizes the
    #: pool automatically (and it is always raised to ``nprocs`` when the
    #: plan contains units that may block, e.g. collectives).
    taskgraph_workers: Optional[int] = None

    def __post_init__(self):
        if self.recv_timeout_s is None:
            self.recv_timeout_s = default_recv_timeout()

    def with_(self, **changes) -> "RuntimeOptions":
        return replace(self, **changes)
