"""The spine: source -> compile -> reuse -> run -> serve -> validate.

One :class:`Spine` is one run of one workload.  The measuring window is
cut into ``PASSES`` passes, each running every stage for its share of
the pass, so the samples of every metric are spread over the whole
window: this host slows down by up to 2x for seconds at a time, and a
stage measured in one stretch would land inside or outside such a phase
as a whole.

Layers are measured from outside, by timing calls into the program's
public functions and by reading what it already returns
(``compiled.phases``, ``RunOutcome`` stats and timings, response
``compile_ms``, ``/stats``).  In a traced
run every other lap decomposes the calls (``compute_fingerprint`` +
``CompileCache.load`` for a warm load; ``build_launch_spec`` + ``launch``
+ ``replay`` for a run), records spans around each and compiles with
``profile_sets=True``; the untraced laps beside them give the tracing
overhead.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro import CompilerOptions, CostModel, RuntimeOptions
from repro import compile_program, get_backend, run_compiled
from repro.cache.manager import reset_caches
from repro.cache.persist import CompileCache, compute_fingerprint
from repro.runtime.cost import replay
from repro.runtime.errors import CommunicationError, ResultDivergenceError
from repro.runtime.harness import (
    ValidationError,
    build_launch_spec,
    cross_check_results,
    independent_arrays,
)
from repro.runtime.trace import RunStatistics
from repro.service.client import (
    TRANSIENT_TRANSPORT_ERRORS,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import sha256_text
from repro.service.server import create_server

import checks
from plans import HOT_SET, PROGRAMS, STENCIL_CHECK, Plan, stencil_source
from spans import Recorder

SETUP_REPS = 3
PASSES = 3
RUN_REQUEST = {"n": 32}


def settle() -> None:
    """Before a timed call: collect, then move every survivor out of the
    collector's reach, so that a full collection inside the call scans
    what the call allocated and not the artifacts of every lap before
    it (which cost 50-90 ms at random, a fifth of a small compile)."""
    gc.collect()
    gc.freeze()


class Server:
    """An in-process compile server on a free port, with its thread."""

    def __init__(self, cache_dir: Path, workers: int = 0):
        self.http = create_server(port=0, cache_dir=str(cache_dir),
                                  workers=workers)
        self.port = self.http.server_address[1]
        self.thread = threading.Thread(
            target=self.http.serve_forever, daemon=True,
            # shutdown() waits out one poll, 0-0.5 s at the default
            kwargs={"poll_interval": 0.05},
        )
        self.thread.start()

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=120.0)

    def close(self) -> None:
        self.http.shutdown_gracefully(timeout_s=30.0)
        self.http.server_close()
        self.thread.join(timeout=30.0)


class Spine:
    def __init__(self, plan: Plan, seed: int, seconds: float, trace: bool,
                 workdir: Path, smoke: bool = False):
        self.plan = plan
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.workdir = workdir
        self.rng = random.Random(f"spine:{plan.name}:{seed}")
        self.rec = Recorder()
        self.sources: Dict[str, str] = {
            name: PROGRAMS[name].source for name in PROGRAMS
        }
        self.hot_set = list(HOT_SET)
        for index in range(2):
            name = f"stencil{index}"
            self.sources[name] = stencil_source(self.rng)
            self.hot_set.append(name)
        self.variants = 0
        self.rounds = 0
        self.artifacts: Dict[str, object] = {}
        self.shas: Dict[str, str] = {}
        self.set_counts: Dict[str, dict] = {}
        self.memo = {"cold": defaultdict(lambda: [0, 0]),
                     "hot": defaultdict(lambda: [0, 0])}
        self.outcomes: Dict[tuple, tuple] = {}
        self.cell_stats: Dict[str, RunStatistics] = {}
        self.scheduler: Dict[str, List[dict]] = defaultdict(list)
        self.first_plan_build_s = 0.0
        self.responses: List[dict] = []
        self.service_stats: dict = {}
        self.artifact_bytes = 0
        self.prime_s: List[float] = []
        self.warmup_s = 0.0
        self.pool_ready_s = 0.0
        self.server: Optional[Server] = None
        self.clients: List[ServiceClient] = []
        self.cache = CompileCache(str(workdir / "cache"))
        self.stored: set = set()
        #: per stage: (laps run, wall of the timed laps).
        self.stage_laps: Dict[str, tuple] = {}

    # -- helpers -----------------------------------------------------------

    def shuffled(self, items) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def laps(self, stage: str) -> Iterator[int]:
        """Laps of a stage until its share of this pass is used: at
        least one, and another while half of it still fits.  In a traced
        run every other lap of a stage is traced, starting with one."""
        began = time.perf_counter()
        deadline = began + self.plan.shares[stage] * self.seconds / PASSES
        done, wall = self.stage_laps.get(stage, (0, 0.0))
        first, last = done, 0.0
        needed = 2 if self.smoke and self.trace else 1
        while (done - first < needed
               or time.perf_counter() + last / 2 <= deadline):
            self.rec.tracing = self.trace and done % 2 == 0
            settle()
            start = time.perf_counter()
            yield done
            last = time.perf_counter() - start
            done += 1
        self.rec.tracing = False
        self.stage_laps[stage] = (
            done, wall + time.perf_counter() - began
        )

    @contextmanager
    def warmup(self) -> Iterator[None]:
        """Untimed first calls of a stage; their cost goes to setup_s."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.warmup_s += time.perf_counter() - start

    def fresh_variant(self) -> str:
        """A stencil no server has seen: a cold request."""
        self.variants += 1
        name = f"variant{self.variants}"
        self.sources[name] = stencil_source(self.rng)
        return name

    def note_source(self, name: str, where: str, emitted: str) -> None:
        """Determinism: every compile of a program, by any path, must
        emit the same node program."""
        digest = sha256_text(emitted)
        known = self.shas.setdefault(name, digest)
        self.rec.check(
            digest == known,
            f"{name}: {where} emitted a different node program",
        )

    def note_compile(self, kind: str, name: str, compiled, span) -> None:
        self.note_source(name, kind, compiled.source)
        self.artifacts[name] = compiled
        phases = compiled.phases
        for lru, entry in phases.cache_stats.items():
            counts = self.memo[kind][lru]
            counts[0] += entry.get("hits", 0)
            counts[1] += entry.get("hits", 0) + entry.get("misses", 0)
        if kind != "cold":
            return
        top = [(p, s) for p, s in phases.totals.items() if "/" not in p]
        for phase, seconds in top:
            self.rec.add(("phase", phase, name), seconds)
        self.rec.add(
            ("phase_share", name),
            sum(s for _, s in top) / max(phases.wall_total, 1e-12),
        )
        self.rec.child_spans(span, top)
        if phases.set_stats:
            ops = phases.set_stats["ops"]
            for op, entry in ops.items():
                self.rec.add(("setop_s", op, name), entry["seconds"])
            counts = {
                "calls": {op: e["calls"] for op, e in ops.items()},
                "events": dict(phases.set_stats["events"]),
            }
            known = self.set_counts.setdefault(name, counts)
            self.rec.check(
                counts == known,
                f"{name}: set-engine counts differ between two compiles",
            )

    # -- set-up ------------------------------------------------------------

    def prime(self) -> None:
        """The repeatable part of set-up: cold caches, a fresh store, a
        server with its hot set compiled."""
        if self.server is not None:  # tearing down is not setting up
            self.server.close()
        start = time.perf_counter()
        reset_caches()
        store = self.workdir / "store"
        shutil.rmtree(store, ignore_errors=True)
        self.server = Server(store)
        with self.server.client() as client:
            for name in self.hot_set:
                response = client.compile(self.sources[name])
                if not response.get("ok"):
                    self.rec.fail(f"priming {name}: {response}")
        self.prime_s.append(time.perf_counter() - start)

    def setup(self) -> None:
        for _ in range(1 if self.smoke else SETUP_REPS):
            self.prime()

    @property
    def setup_s(self) -> float:
        """Median of the repeated part plus the one-off stage warm-ups
        (imports are added by the caller, who saw them happen)."""
        return statistics.median(self.prime_s) + self.warmup_s

    # -- stage: compile (cold, hot, warm) -----------------------------------

    def compile_stage(self) -> None:
        """Per program: a compile from cold caches; for the reuse set,
        the same compile again on the memo caches that one left hot, and
        ``warm_loads`` loads from the persistent cache."""
        rec = self.rec
        options = CompilerOptions(cache_dir=str(self.cache.root))
        for lap in self.laps("compile"):
            for name in self.shuffled(self.plan.cold):
                source = self.sources[name]
                reset_caches()
                settle()
                with rec.measure("compile_program[cold]", ("cold", name),
                                 op=True) as span:
                    compiled = compile_program(
                        source, CompilerOptions(profile_sets=rec.tracing)
                    )
                self.note_compile("cold", name, compiled, span)
                if name not in self.plan.reuse:
                    continue
                with rec.measure("compile_program[hot]", ("hot", name),
                                 op=True) as span:
                    compiled = compile_program(source)
                self.note_compile("hot", name, compiled, span)
                fingerprint = compute_fingerprint(source, options)
                if name not in self.stored:
                    with self.warmup():
                        self.cache.store(fingerprint, compiled)
                    self.stored.add(name)
                for _ in range(self.plan.warm_loads):
                    with rec.measure("warm_load", ("warm", name), op=True):
                        if rec.tracing:
                            with rec.measure("compute_fingerprint"):
                                compute_fingerprint(source, options)
                            with rec.measure("CompileCache.load",
                                             ("persist_load", name)):
                                loaded = self.cache.load(fingerprint)
                        else:
                            loaded = compile_program(source, options)
                    if loaded is None or not (
                        rec.tracing or loaded.cache_hit
                    ):
                        rec.fail(f"{name}: warm load missed the cache")
                    else:
                        self.note_source(name, "warm load", loaded.source)
            if rec.tracing and lap < 4:  # twice a run is enough
                self.traced_cache_extras(lap)

    def traced_cache_extras(self, lap: int) -> None:
        """The two cache paths no end-to-end metric times: a store into
        an empty directory and a caching="off" compile."""
        rec = self.rec
        scratch = self.workdir / f"store-lap{lap}"
        for name in self.plan.reuse:
            fingerprint = compute_fingerprint(
                self.sources[name], CompilerOptions()
            )
            with rec.measure("CompileCache.store",
                             ("persist_store", name), op=True):
                CompileCache(str(scratch)).store(
                    fingerprint, self.artifacts[name]
                )
        shutil.rmtree(scratch, ignore_errors=True)
        for name in self.plan.nocache:
            with rec.measure("compile_program[off]", ("off", name),
                             op=True):
                compiled = compile_program(
                    self.sources[name], CompilerOptions(caching="off")
                )
            self.note_source(name, 'caching="off"', compiled.source)

    # -- stage: SPMD run -----------------------------------------------------

    def artifact(self, name: str):
        if name not in self.artifacts:
            compiled = compile_program(self.sources[name])
            self.note_source(name, "on demand", compiled.source)
            self.artifacts[name] = compiled
        return self.artifacts[name]

    def run_stage(self) -> None:
        pairs = [(c, b) for c in self.plan.cells for b in c.backends]
        if not self.outcomes:
            with self.warmup():
                for c, backend in pairs:
                    scheduler = self.run_cell(c, backend, timed=False)
                    if scheduler:
                        self.first_plan_build_s += scheduler["plan_build_s"]
        for _ in self.laps("run"):
            for c, backend in self.shuffled(pairs):
                self.run_cell(c, backend)

    def run_cell(self, c, backend: str, timed: bool = True):
        rec = self.rec
        compiled = self.artifact(c.program)
        params = dict(c.params)
        options = RuntimeOptions(comm_latency_s=c.comm_latency_s)
        key = (c.key, backend)
        try:
            if not (timed and rec.tracing):
                with rec.measure("run_compiled",
                                 ("run",) + key if timed else None,
                                 op=timed):
                    outcome = run_compiled(
                        compiled, params=params, nprocs=c.nprocs,
                        backend=backend, validate=False,
                        runtime_options=options,
                    )
                results, stats = outcome.results, outcome.stats
                timings, scheduler = outcome.timings, stats.scheduler
                launch_wall_s = outcome.launch_wall_s
            else:
                with rec.measure("run", ("run",) + key, op=True):
                    with rec.measure("build_launch_spec", ("spec",) + key):
                        spec = build_launch_spec(
                            compiled, params, c.nprocs, options
                        )
                    if backend == "taskgraph":
                        with rec.measure("independent_arrays",
                                         ("hints",) + key):
                            spec.dep_hints = independent_arrays(compiled)
                    with rec.measure("launch", ("launch",) + key):
                        launch = get_backend(backend).launch(spec)
                    results = launch.results
                    traces = [r.trace for r in results]
                    with rec.measure("RunStatistics.from_traces"):
                        stats = RunStatistics.from_traces(traces)
                    with rec.measure("replay", ("replay",) + key):
                        replay(traces, CostModel())
                timings, scheduler = launch.timings, launch.scheduler
                launch_wall_s = launch.wall_s
        except CommunicationError as exc:
            rec.fail(f"run {c.key} on {backend}: {exc!r}")
            return None
        self.outcomes[key] = (compiled, results)
        known = self.cell_stats.setdefault(c.key, stats)
        rec.check(
            (stats.total_bytes, stats.total_messages)
            == (known.total_bytes, known.total_messages),
            f"{c.key} on {backend}: message traffic differs between runs",
        )
        if timed:
            slowest = max(t.wall_s for t in timings)
            rec.add(("rank_wall",) + key, slowest)
            rec.add(("comm_wall",) + key,
                    max(t.comm_wall_s for t in timings))
            rec.add(("launch_wall",) + key, launch_wall_s)
            rec.add(("launch_overhead",) + key, launch_wall_s - slowest)
            if scheduler and rec.tracing:
                self.scheduler[c.key].append(scheduler)
        return scheduler

    # -- stage: compile service ----------------------------------------------

    def request(self, client: ServiceClient, kind: str, name: str,
                expect: Optional[str] = None) -> None:
        """One /compile at the client; the response's ``compile_ms`` is
        laid inside the span as the server's part of it."""
        rec = self.rec
        try:
            with rec.measure(f"request[{kind}]", ("served", kind),
                             op=True) as span:
                response = client.compile(self.sources[name])
        except (ServiceError,) + TRANSIENT_TRANSPORT_ERRORS as exc:
            rec.fail(f"{kind} request {name}: {exc!r}")
            return
        if not response.get("ok"):
            rec.fail(f"{kind} request {name}: {response.get('error')}")
            return
        if expect and response["cache"] != expect:
            rec.fail(f"{kind} request {name}: served {response['cache']}")
        server_s = response["compile_ms"] / 1e3
        rec.add(("served_server", kind), server_s)
        rec.child_spans(span, [("server", server_s)])
        self.responses.append({
            "name": name, "kind": kind, "cache": response["cache"],
            "sha": response["artifact_sha256"],
            "retries": len(client.last_attempts) - 1,
        })

    def served_round(self, clients: List[ServiceClient]) -> None:
        mix = self.plan.served
        # One client sends all of a round's cold requests, the clients
        # taking turns: two cold compiles never share the server's GIL.
        # When they could (each client's in its own slice of the round
        # still drifted into the other's), a quarter of them took 160 ms
        # instead of 104 ms and the median sat between two modes.
        scripts = [
            [("hot", self.rng.choice(self.hot_set), "hot")
             for _ in range(mix.per_client)]
            for _ in clients
        ]
        script = scripts[self.rounds % len(clients)]
        self.rounds += 1
        for offset in self.rng.sample(range(mix.per_client), mix.cold):
            script[offset] = ("cold", self.fresh_variant(), "cold")

        def drive(client, script):
            for kind, name, expect in script:
                self.request(client, kind, name, expect)

        threads = [
            threading.Thread(target=drive, args=pair)
            for pair in zip(clients, scripts)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        self.rec.add(("round_rate",),
                     mix.per_client * len(clients) / wall)

    def served_stage(self) -> None:
        if not self.clients:
            self.clients = [self.server.client()
                            for _ in range(self.plan.served.clients)]
            with self.warmup():
                for client in self.clients:
                    client.compile(self.sources[self.hot_set[0]])
        for _ in self.laps("served"):
            self.served_round(self.clients)

    def finish_served(self) -> None:
        try:
            if self.trace:
                self.rec.tracing = True
                self.traced_service_extras(self.clients)
                self.rec.tracing = False
            self.service_stats = self.clients[0].stats()
        finally:
            for client in self.clients:
                client.close()

    def traced_service_extras(self, clients: List[ServiceClient]) -> None:
        """Service paths that only feed per-layer metrics: a new
        connection per request, a burst on one fresh fingerprint, /run,
        and cold compiles through a one-worker pool."""
        rec, mix = self.rec, self.plan.served
        for _ in range(mix.fresh):
            with self.server.client() as client:
                self.request(client, "fresh", self.rng.choice(self.hot_set),
                             "hot")
        for _ in range(mix.burst):
            name = self.fresh_variant()
            barrier = threading.Barrier(len(clients))

            def burst(client):
                barrier.wait()
                self.request(client, "burst", name)

            threads = [threading.Thread(target=burst, args=(client,))
                       for client in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for _ in range(mix.runs):
            with rec.measure("request[run]", ("served", "run"), op=True):
                response = clients[0].run(
                    self.sources["gauss"], params=RUN_REQUEST, nprocs=2
                )
            if not (response.get("ok") and response.get("validated")):
                rec.fail(f"/run gauss: {response.get('error')}")
        if mix.pooled:
            start = time.perf_counter()
            pool = Server(self.workdir / "pool-store", workers=1)
            try:
                ready = pool.http.service.wait_ready(timeout_s=60.0)
                self.pool_ready_s = time.perf_counter() - start
                rec.check(ready, "worker pool never became ready")
                with pool.client() as client:
                    for _ in range(mix.pooled):
                        name = self.fresh_variant()
                        self.request(client, "pool_cold", name, "cold")
            finally:
                pool.close()

    # -- validation ----------------------------------------------------------

    def verify(self) -> None:
        rec = self.rec
        expected = checks.load_expected()
        for name, compiled in sorted(self.artifacts.items()):
            program = PROGRAMS[name]
            try:
                with rec.measure("run_compiled[validate]", op=True):
                    outcome = run_compiled(
                        compiled, params=program.check,
                        nprocs=program.check_nprocs, validate=True,
                    )
            except (ValidationError, CommunicationError) as exc:
                rec.fail(f"{name} at check size: {exc!r}")
                continue
            if self.trace:
                # The reference once more from outside, to time the
                # interpreter and to check the summaries this file uses
                # at timed size against it.
                rec.tracing = True
                with rec.measure("run_serial", ("interp", name)):
                    want = checks.serial_summaries(
                        self.sources[name], program.check
                    )
                rec.tracing = False
                got = checks.parallel_summaries(compiled, outcome.results)
                rec.check(checks.summaries_agree(got, want),
                          f"{name}: check-size summaries differ from "
                          "the serial interpreter")
        for (cell_key, backend), (compiled, results) in sorted(
            self.outcomes.items()
        ):
            rec.check(
                cell_key in expected and checks.summaries_agree(
                    checks.parallel_summaries(compiled, results),
                    expected[cell_key],
                ),
                f"{cell_key} on {backend}: output differs from "
                "expected.json",
            )
            golden = self.outcomes.get((cell_key, "inproc-seq"))
            if golden and backend != "inproc-seq":
                try:
                    cross_check_results(results, golden[1], cell_key)
                    diverged = ""
                except ResultDivergenceError as exc:
                    diverged = str(exc)
                rec.check(not diverged, f"{backend}: {diverged}")
        self.audit_responses()

    def audit_responses(self) -> None:
        """Every served artifact hash against an in-process compile of
        the same source (a seeded sample of the cold variants: each
        costs a compile)."""
        by_name: Dict[str, set] = defaultdict(set)
        for response in self.responses:
            by_name[response["name"]].add(response["sha"])
        variants = sorted(n for n in by_name if n.startswith("variant"))
        audited = [n for n in by_name if not n.startswith("variant")]
        audited += self.rng.sample(variants, min(3, len(variants)))
        for name in audited:
            if name in PROGRAMS:
                compiled = self.artifact(name)
            else:
                compiled = compile_program(self.sources[name])
            self.rec.check(
                by_name[name] == {sha256_text(compiled.source)},
                f"served artifact of {name} differs from an in-process "
                "compile",
            )
            if name.startswith("stencil"):
                try:
                    run_compiled(compiled, params=STENCIL_CHECK, nprocs=4,
                                 validate=True)
                    wrong = ""
                except (ValidationError, CommunicationError) as exc:
                    wrong = repr(exc)
                self.rec.check(not wrong, f"{name} at check size: {wrong}")

    # -- the whole run -------------------------------------------------------

    def run(self) -> None:
        try:
            self.setup()
            for _ in range(1 if self.smoke else PASSES):
                self.compile_stage()
                self.run_stage()
                self.served_stage()
            self.finish_served()
            self.artifact_bytes = self.cache.stats()["bytes"]
            began = time.perf_counter()
            self.verify()
            self.stage_laps["verify"] = (1, time.perf_counter() - began)
        finally:
            self.rec.tracing = False
            if self.server is not None:
                self.server.close()
