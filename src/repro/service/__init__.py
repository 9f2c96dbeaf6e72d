"""Long-lived compile service (see DESIGN.md §10 and §13).

A threaded HTTP server multiplexing concurrent compile+run requests over
the CLI's own persistent compile cache (one flat, cross-process-safe
``CompileCache`` directory) with single-flight batching of identical
in-flight compiles, and (``workers >= 1``) a supervised
pre-forked worker pool running the actual compiles in parallel:

* :mod:`repro.service.server` — :class:`CompileService` (the
  protocol-agnostic core) and the stdlib HTTP layer (``repro serve``);
* :mod:`repro.service.pool` — the compile worker pool: bounded dispatch
  queue, load shedding, pipe protocol, graceful drain;
* :mod:`repro.service.supervisor` — per-slot supervision: crash
  detection + respawn backoff, compile deadlines, poison-pill
  quarantine;
* :mod:`repro.service.singleflight` — in-flight request coalescing with
  leader-failure handoff;
* :mod:`repro.service.client` — keep-alive JSON client with bounded
  transport retries (``repro submit``, the load harness);
* :mod:`repro.service.protocol` — every wire shape in one place;
* :mod:`repro.service.metrics` — counters, gauges, queue depth,
  p50/p99.
"""

from .client import ServiceClient, ServiceError, ServiceOverloadedError
from .pool import PoolDrainingError, PoolSaturatedError, WorkerPool
from .server import CompileService, ServiceHTTPServer, create_server
from .singleflight import SingleFlight
from .supervisor import Quarantine, RemoteCompileError, WorkerSupervisor

__all__ = [
    "CompileService",
    "PoolDrainingError",
    "PoolSaturatedError",
    "Quarantine",
    "RemoteCompileError",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceOverloadedError",
    "SingleFlight",
    "WorkerPool",
    "WorkerSupervisor",
    "create_server",
]
