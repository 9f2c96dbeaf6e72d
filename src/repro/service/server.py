"""The compile server: a long-lived, concurrency-safe compile+run service.

Architecture (stdlib only)::

    ThreadingHTTPServer (one thread per connection, keep-alive)
        └── CompileService          protocol-agnostic core, also usable
            ├── CompileCache        in-process directly (tests, the
            ├── SingleFlight        cache-roundtrip gate)
            ├── ServerMetrics
            └── WorkerPool          optional (workers >= 1): actual
                                    compiles run in supervised worker
                                    processes (see DESIGN §13)

Request flow for ``POST /run`` (``/compile`` stops after step 3):

1. parse+validate the JSON body (:mod:`repro.service.protocol`);
2. fingerprint the (source, options) pair — the same fingerprint the
   CLI's persistent cache uses;
3. resolve the artifact: in-memory LRU → the persistent
   :class:`~repro.cache.persist.CompileCache` directory (the very files
   ``repro compile --cache-dir`` reads and writes, so server and CLI
   caches interoperate) →
   **single-flight compile** (concurrent identical fingerprints compile
   once; waiters are counted as *coalesced*).  ``caching="off"``
   requests bypass every layer — the A/B guarantee holds through the
   service;
4. run the program under the PR 4 supervisor: a crashing backend, a
   deadlock, or a divergent result returns a *typed* JSON error to that
   one client (``ok: false`` with the taxonomy name and transience);
   the server itself never dies with the request.

``GET /stats`` reports the artifact store's hit/miss/eviction counters,
in-memory artifact cache stats, single-flight coalescing totals, queue
depth, and p50/p99 latency per request class.  ``POST /shutdown`` stops
the server (the server binds loopback by default; there is no
authentication — do not expose it beyond a trusted host).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..cache.manager import LRUCache, caches
from ..cache.persist import (
    CompileCache,
    compute_fingerprint,
    default_cache_dir,
)
from ..core.driver import CompiledProgram, compile_program
from ..isets.profile import SetOpProfiler
from ..runtime.backends import backend_names
from ..runtime.errors import CommunicationError, is_transient
from ..runtime.faults import FaultPlan
from ..runtime.harness import RetryPolicy, ValidationError, run_compiled
from ..runtime.options import RuntimeOptions
from .metrics import ServerMetrics
from .pool import PoolDrainingError, PoolSaturatedError, WorkerPool
from .protocol import (
    BadRequest,
    compile_meta_to_wire,
    error_to_wire,
    options_from_wire,
    outcome_to_wire,
    sha256_text,
)
from .singleflight import SingleFlight

DEFAULT_PORT = 8737


def _int_field(payload: dict, name: str, default: int, minimum: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or (
        value < minimum
    ):
        raise BadRequest(f"'{name}' must be an integer >= {minimum}")
    return value


def _backend_field(name: str, value) -> str:
    if value not in backend_names():
        raise BadRequest(
            f"'{name}': unknown execution backend {value!r} "
            f"(registered: {', '.join(backend_names())})"
        )
    return value


class CompileService:
    """Protocol-agnostic request core shared by HTTP and in-process use."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        memory_artifacts: int = 64,
        workers: int = 0,
        queue_depth: int = 16,
        quarantine_after: int = 3,
        compile_deadline_s: float = 60.0,
        pool_fault_plan: Optional[FaultPlan] = None,
    ):
        self.store = CompileCache(cache_dir or default_cache_dir())
        self.flight = SingleFlight()
        self.metrics = ServerMetrics()
        # workers=0: compile in-process (the pre-pool behavior, right
        # for tests and one-shot use).  workers>=1: dispatch each actual
        # compile to the supervised worker pool.
        self.pool: Optional[WorkerPool] = None
        if workers:
            self.pool = WorkerPool(
                workers=workers,
                queue_depth=queue_depth,
                quarantine_after=quarantine_after,
                compile_deadline_s=compile_deadline_s,
                fault_plan=pool_fault_plan,
            ).start()
            self.metrics.register_gauge(
                "pool_queue",
                lambda: {
                    "current": self.pool.tasks.qsize(),
                    "capacity": self.pool.queue_depth,
                },
            )
        self._draining = False
        # Deserialized artifacts kept hot in memory (bounded; the disk
        # store remains the source of truth and survives restarts).
        # Per service, not in the process-wide registry: two services in
        # one process must not answer from each other's artifacts.
        self._mem = LRUCache("service.artifacts", maxsize=memory_artifacts)
        # Fleet-wide set-engine profile: every actual compile (cold,
        # coalesced-leader, bypass) runs with ``profile_sets`` on and folds
        # its per-compile snapshot in here; ``/stats`` reports the
        # aggregate.  Hits don't re-count — they did no set work.
        self._set_profile = SetOpProfiler()
        self._set_profile_lock = threading.Lock()
        self.started_at = time.time()

    def _compile_profiled(self, source: str, options) -> CompiledProgram:
        """One actual compile, profiled and folded into the aggregate."""
        compiled = compile_program(source, options.with_(profile_sets=True))
        self._merge_set_stats(compiled)
        return compiled

    def _merge_set_stats(self, compiled: CompiledProgram) -> None:
        snapshot = compiled.phases.set_stats
        if snapshot:
            with self._set_profile_lock:
                self._set_profile.merge_snapshot(snapshot)

    def _compile_actual(
        self, source: str, options, fingerprint: str
    ) -> CompiledProgram:
        """Route one actual compile: in-process, or pooled with retry.

        The worker runs the identical ``compile_program(source,
        options.with_(profile_sets=True))`` call the in-process path
        runs, so pooled artifacts are byte-identical.  A transient
        worker death (crash, stall) retries on a respawned worker; the
        loop is bounded because every death charges the fingerprint's
        quarantine budget, which eventually converts retries into the
        terminal ``CompileQuarantinedError``.
        """
        if self.pool is None:
            return self._compile_profiled(source, options)
        # +2: quarantine_after deaths trip the breaker; the slack covers
        # unlucky interleavings with deaths charged by other requests.
        max_attempts = self.pool.quarantine.quarantine_after + 2
        attempt = 0
        while True:
            attempt += 1
            try:
                compiled = self.pool.compile(source, options, fingerprint)
            except (PoolSaturatedError, PoolDrainingError):
                raise  # pre-queue rejections are the client's to retry
            except CommunicationError as exc:
                if not is_transient(exc) or attempt >= max_attempts:
                    raise
                self.metrics.incr("pool.compile_retries")
                continue
            self._merge_set_stats(compiled)
            return compiled

    # -- compile -----------------------------------------------------------

    def compile_source(
        self, source: str, options_data: Optional[dict] = None
    ) -> Tuple[CompiledProgram, Dict[str, object]]:
        """Resolve an artifact for (source, options); returns it plus the
        compile metadata dict (fingerprint, cache kind, latency)."""
        if not isinstance(source, str) or not source.strip():
            raise BadRequest("'source' must be non-empty program text")
        options = options_from_wire(options_data)
        fingerprint = compute_fingerprint(source, options)
        start = time.perf_counter()

        if options.caching == "off":
            # The A/B path: no memoization, no artifact reuse, no
            # single-flight result sharing across options (the compile
            # itself still coalesces with an identical off request).
            compiled, coalesced = self.flight.do(
                ("off", fingerprint),
                lambda: self._compile_actual(source, options, fingerprint),
                retryable=is_transient,
            )
            kind = "bypass"
        else:
            compiled, kind = self._cached_compile(source, options,
                                                  fingerprint)
            coalesced = kind == "coalesced"
        elapsed = time.perf_counter() - start
        self.metrics.incr(f"compile.{kind}")
        self.metrics.observe(f"compile_{kind}", elapsed)
        meta = compile_meta_to_wire(
            fingerprint,
            kind,
            elapsed * 1e3,
            sha256_text(source),
            sha256_text(compiled.source),
        )
        if coalesced:
            meta["coalesced"] = True
        # The set-engine profile of the compile that built this artifact
        # (travels with cached artifacts; hits report their cold compile).
        if compiled.phases.set_stats:
            meta["set_ops"] = compiled.phases.set_stats
        return compiled, meta

    def _cached_compile(self, source, options, fingerprint):
        found, value = self._mem.lookup(fingerprint)
        if found:
            return value, "hot"
        compiled = self.store.load(fingerprint)
        if compiled is not None:
            compiled.cache_hit = True
            self._mem.put(fingerprint, compiled)
            return compiled, "hot"

        def compile_and_store():
            built = self._compile_actual(
                source, options.with_(cache_dir=None), fingerprint
            )
            self.store.store(fingerprint, built)
            self._mem.put(fingerprint, built)
            return built

        # retryable: waiters coalesced behind a leader whose pool worker
        # was killed hand off to a fresh leader instead of all failing
        # with the dead leader's transient error.
        compiled, coalesced = self.flight.do(
            fingerprint, compile_and_store, retryable=is_transient
        )
        return compiled, ("coalesced" if coalesced else "cold")

    # -- requests ----------------------------------------------------------

    def handle_compile(self, payload: dict) -> Dict[str, object]:
        try:
            _, meta = self.compile_source(
                payload.get("source"), payload.get("options")
            )
        except (PoolSaturatedError, PoolDrainingError):
            raise  # mapped to 429 / 503 by the HTTP layer
        except CommunicationError as exc:
            # Quarantined fingerprint or an exhausted worker-death retry
            # loop: a typed per-request failure, not a server error.
            self.metrics.incr("compile.failed")
            return {"ok": False, "error": error_to_wire(exc)}
        return {"ok": True, **meta}

    def handle_run(self, payload: dict) -> Dict[str, object]:
        # Every run field is checked before the compile, so a malformed
        # request costs nothing and is refused with a 400.
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequest("'params' must be an object of integers")
        try:
            params = {str(k): int(v) for k, v in params.items()}
        except (TypeError, ValueError):
            raise BadRequest("'params' values must be integers")
        nprocs = _int_field(payload, "nprocs", 4, minimum=1)
        backend = _backend_field(
            "backend", payload.get("backend") or "threads"
        )
        validate = bool(payload.get("validate", True))
        retries = _int_field(payload, "retries", 0, minimum=0)
        fallback = payload.get("fallback_backends") or []
        if not isinstance(fallback, list):
            raise BadRequest("'fallback_backends' must be a list of backends")
        fallback = tuple(
            _backend_field("fallback_backends", name) for name in fallback
        )

        runtime_options = RuntimeOptions(backend=backend)
        for knob in ("recv_timeout_s", "run_timeout_s"):
            if payload.get(knob) is not None:
                try:
                    value = float(payload[knob])
                except (TypeError, ValueError):
                    raise BadRequest(f"'{knob}' must be a number")
                if not 0 < value < math.inf:
                    raise BadRequest(f"'{knob}' must be positive and finite")
                runtime_options = runtime_options.with_(**{knob: value})
        if payload.get("fault_spec"):
            try:
                plan = FaultPlan.parse(
                    payload["fault_spec"],
                    seed=int(payload.get("fault_seed", 0)),
                )
            except ValueError as exc:
                raise BadRequest(f"fault_spec: {exc}")
            runtime_options = runtime_options.with_(fault_plan=plan)
        if fallback:
            runtime_options = runtime_options.with_(
                fallback_backends=fallback
            )
        retry_policy = (
            RetryPolicy(max_attempts=retries + 1)
            if retries or fallback
            else None
        )

        try:
            compiled, meta = self.compile_source(
                payload.get("source"), payload.get("options")
            )
        except (PoolSaturatedError, PoolDrainingError):
            raise
        except CommunicationError as exc:
            self.metrics.incr("compile.failed")
            return {"ok": False, "error": error_to_wire(exc)}

        start = time.perf_counter()
        # The supervisor boundary: typed failures become per-request
        # error payloads, never a dead server thread.
        try:
            outcome = run_compiled(
                compiled,
                params=params,
                nprocs=nprocs,
                validate=validate,
                backend=backend,
                runtime_options=runtime_options,
                retry_policy=retry_policy,
            )
        except (CommunicationError, ValidationError, ValueError) as exc:
            self.metrics.incr("run.failed")
            return {"ok": False, **meta, "error": error_to_wire(exc)}
        elapsed = time.perf_counter() - start
        self.metrics.incr("run.ok")
        self.metrics.observe("run", elapsed)
        return {
            "ok": True,
            **meta,
            "run_ms": round(elapsed * 1e3, 3),
            "validated": validate,
            "outcome": outcome_to_wire(outcome),
        }

    # -- lifecycle ---------------------------------------------------------

    def wait_ready(self, timeout_s: float = 10.0) -> bool:
        """Block until the service is ready (>=1 worker up, not draining).

        Pool-less services are ready immediately.  Returns readiness.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            ready, _ = self.readiness()
            if ready or time.monotonic() >= deadline:
                return ready
            time.sleep(0.02)

    def readiness(self) -> Tuple[bool, Dict[str, object]]:
        """(ready, payload) for ``/healthz`` — the load-balancer view."""
        if self._draining or (self.pool is not None
                              and self.pool.draining):
            return False, {"ok": False, "reason": "draining"}
        if self.pool is not None:
            alive = self.pool.alive_workers()
            if alive < 1:
                return False, {
                    "ok": False,
                    "reason": "no compile workers up",
                    "workers": {"alive": 0,
                                "configured": self.pool.workers},
                }
        return True, {"ok": True}

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Flip readiness off and stop the pool accepting new work."""
        self._draining = True
        if self.pool is not None:
            self.pool.begin_drain()

    def close(self, timeout_s: float = 30.0) -> bool:
        """Graceful drain: finish in-flight compiles, stop every worker."""
        self.begin_drain()
        if self.pool is not None:
            return self.pool.drain(timeout_s)
        return True

    def stats(self) -> Dict[str, object]:
        memo = {
            name: {
                "hits": s.hits,
                "misses": s.misses,
                "evictions": s.evictions,
                "size": s.size,
                "maxsize": s.maxsize,
            }
            for name, s in {
                **caches.stats(), self._mem.name: self._mem.stats()
            }.items()
            if s.lookups or s.size
        }
        store = self.store.stats()
        return {
            "ok": True,
            "uptime_s": round(time.time() - self.started_at, 3),
            "draining": self._draining,
            "store": {"dir": store.pop("dir"),
                      "capacity": self.store.CAPACITY, "totals": store},
            "single_flight": {
                "led": self.flight.led_total,
                "coalesced": self.flight.coalesced_total,
                "handoffs": self.flight.handoffs_total,
                "timeouts": self.flight.timeouts_total,
                "in_flight": self.flight.in_flight(),
            },
            "pool": self.pool.stats() if self.pool else None,
            "memo_caches": memo,
            "set_ops": self._set_ops_snapshot(),
            **self.metrics.snapshot(),
        }

    def _set_ops_snapshot(self) -> Dict[str, object]:
        with self._set_profile_lock:
            return self._set_profile.snapshot()


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops (kernel-resets) connections
    # the moment a burst of clients arrives faster than accept() runs.
    request_queue_size = 128

    def __init__(self, address, service: CompileService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)

    def shutdown_gracefully(self, timeout_s: float = 30.0) -> None:
        """Drain-then-stop: flip readiness off, finish in-flight work,
        stop every worker (terminate→join→kill), then stop serving.

        The order matters: readiness goes false *first* so balancers
        stop routing, the pool drains while the HTTP front-end still
        answers (`/livez`, in-flight requests), and only then does the
        accept loop stop."""
        self.service.begin_drain()
        self.service.close(timeout_s=timeout_s)
        self.shutdown()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-compile-service"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise BadRequest("missing request body")
        try:
            payload = json.loads(self.rfile.read(length))
        except ValueError:
            raise BadRequest("request body is not valid JSON")
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        service = self.server.service
        headers: Dict[str, str] = {}
        with service.metrics.queue_depth:
            try:
                status, payload = handler()
            except BadRequest as exc:
                service.metrics.incr("requests.bad")
                status, payload = 400, {"ok": False,
                                        "error": error_to_wire(exc)}
            except PoolSaturatedError as exc:
                # Load shedding: tell the client when to come back.
                service.metrics.incr("requests.shed")
                status, payload = 429, {"ok": False,
                                        "error": error_to_wire(exc)}
                headers["Retry-After"] = str(
                    max(1, int(round(exc.retry_after_s)))
                )
            except PoolDrainingError as exc:
                service.metrics.incr("requests.draining")
                status, payload = 503, {"ok": False,
                                        "error": error_to_wire(exc)}
            except Exception as exc:  # never kill the connection thread
                service.metrics.incr("requests.error")
                status, payload = 500, {"ok": False,
                                        "error": error_to_wire(exc)}
        self._send_json(status, payload, headers=headers)

    # -- routes ------------------------------------------------------------

    def do_GET(self):
        if self.path == "/healthz":
            # Readiness: should a load balancer route here?  503 while
            # draining or with no compile worker up; the healthy payload
            # stays {"ok": true} for pre-split clients.
            def readiness():
                ready, payload = self.server.service.readiness()
                return (200 if ready else 503), payload
            self._dispatch(readiness)
        elif self.path == "/livez":
            # Liveness: is the process serving HTTP at all?  Always yes
            # if this handler runs — draining servers are still alive.
            self._dispatch(lambda: (200, {"ok": True}))
        elif self.path == "/stats":
            self._dispatch(lambda: (200, self.server.service.stats()))
        else:
            self._send_json(404, {"ok": False,
                                  "error": {"type": "NotFound",
                                            "message": self.path}})

    def do_POST(self):
        service = self.server.service
        if self.path == "/compile":
            self._dispatch(
                lambda: (200, service.handle_compile(self._read_json()))
            )
        elif self.path == "/run":
            self._dispatch(
                lambda: (200, service.handle_run(self._read_json()))
            )
        elif self.path == "/shutdown":
            self._send_json(200, {"ok": True, "stopping": True})
            threading.Thread(target=self.server.shutdown_gracefully,
                             daemon=True).start()
        else:
            self._send_json(404, {"ok": False,
                                  "error": {"type": "NotFound",
                                            "message": self.path}})


def create_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    cache_dir: Optional[str] = None,
    quiet: bool = True,
    service: Optional[CompileService] = None,
    workers: int = 0,
    queue_depth: int = 16,
    quarantine_after: int = 3,
    compile_deadline_s: float = 60.0,
    pool_fault_plan: Optional[FaultPlan] = None,
) -> ServiceHTTPServer:
    """Bind (but do not start) a compile server; ``port=0`` picks a free
    port, readable afterwards from ``server.server_address``."""
    service = service or CompileService(
        cache_dir=cache_dir,
        workers=workers,
        queue_depth=queue_depth,
        quarantine_after=quarantine_after,
        compile_deadline_s=compile_deadline_s,
        pool_fault_plan=pool_fault_plan,
    )
    return ServiceHTTPServer((host, port), service, quiet=quiet)
