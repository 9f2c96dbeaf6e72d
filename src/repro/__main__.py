"""Command-line interface: compile and run mini-HPF programs.

Usage::

    python -m repro compile prog.hpf [--source | --listing | --phases]
    python -m repro run prog.hpf --nprocs 4 --param n=64 --param niter=3
    python -m repro sets '{[i] : 1 <= i <= 20 and exists(a : i = 3a)}'
    python -m repro cache stats|clear [--cache-dir DIR]
    python -m repro serve [--port 8737] [--cache-dir DIR]
                          [--workers N] [--queue-depth D]
                          [--quarantine-after K] [--compile-deadline-s S]
    python -m repro submit prog.hpf [--url http://host:port] [--json]

``compile`` prints the compilation listing (default), the generated SPMD
node program, or the phase-time breakdown.  ``run`` executes on the
simulated machine, validates against the serial interpreter, and reports
messages/bytes and the cost-model prediction.  ``sets`` evaluates a set
expression and enumerates it (small sets; parameters via --param).
``cache`` inspects or clears the persistent compile cache; ``compile``
and ``run`` consult that cache when ``--cache-dir`` is given (default:
``$REPRO_CACHE_DIR`` when set), making recompiles of unchanged programs
near-free.  ``serve`` starts the long-lived compile server (DESIGN §10),
which reads and writes that same cache directory;
``--workers N`` adds the supervised compile worker pool (DESIGN §13:
parallel cold compiles, crash respawn, deadlines, load shedding,
poison-pill quarantine, graceful SIGTERM drain).  ``submit`` sends a
compile+run request to a server; ``submit --json`` emits the
machine-readable response for scripts and CI.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Dict, List

# Piping output into `head` is routine; die quietly on SIGPIPE.
try:
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
except (AttributeError, ValueError):
    pass


def _parse_params(pairs: List[str]) -> Dict[str, int]:
    params: Dict[str, int] = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not value:
            raise SystemExit(f"--param expects name=value, got {pair!r}")
        params[name] = int(value)
    return params


def _retries(text: str) -> int:
    """``--retries``: a retry count, never negative."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expects an integer >= 0, got {text!r}"
        )
    return value


def _options_from(args) -> "CompilerOptions":
    from .core.options import CompilerOptions

    return CompilerOptions(
        coalesce=not args.no_coalesce,
        inplace=not args.no_inplace,
        loop_split=args.loop_split,
        active_vp=not args.no_active_vp,
        buffer_mode=args.buffer_mode,
        compute=args.compute,
        caching=args.caching,
        cache_dir=args.cache_dir,
        profile_sets=getattr(args, "profile_sets", False),
    )


def _add_option_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-coalesce", action="store_true",
                        help="disable message coalescing (§3.2)")
    parser.add_argument("--no-inplace", action="store_true",
                        help="disable in-place communication (§3.3)")
    parser.add_argument("--loop-split", action="store_true",
                        help="enable non-local index-set splitting (§3.4)")
    parser.add_argument("--no-active-vp", action="store_true",
                        help="disable active-VP restriction (§4.1)")
    parser.add_argument("--buffer-mode", choices=("overlap", "direct"),
                        default="overlap")
    parser.add_argument("--compute", choices=("kernels", "scalar"),
                        default="kernels",
                        help="compute plane: 'kernels' lowers qualifying "
                             "affine loop pieces to numpy strided-slice "
                             "kernels, 'scalar' interprets every statement "
                             "point-by-point (A/B oracle)")
    parser.add_argument("--caching", choices=("on", "off"), default="on",
                        help="'off' bypasses set-operation memoization and "
                             "the persistent compile cache (A/B path)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=os.environ.get("REPRO_CACHE_DIR"),
                        help="persistent compile-cache directory (default: "
                             "$REPRO_CACHE_DIR if set, else disabled)")
    parser.add_argument("--profile-sets", action="store_true",
                        help="profile the integer-set engine during the "
                             "compile: per-op counters, timings and size "
                             "histograms, printed after the normal output")


def cmd_compile(args) -> int:
    from . import compile_program

    source = open(args.program).read()
    compiled = compile_program(source, _options_from(args))
    if args.source:
        print(compiled.source)
    elif args.phases:
        title = "compile-time phases"
        if compiled.cache_hit:
            title += " (artifact served from the compile cache)"
        print(compiled.phases.format_table(title))
    else:
        print(compiled.listing())
    if args.profile_sets and not args.phases:
        # --phases already appends the set-engine profile via format_table.
        for line in compiled.phases.format_set_stats():
            print(line)
        if not compiled.phases.set_stats:
            print("(set-engine profile empty: artifact served from the "
                  "compile cache)")
    return 0


def cmd_run(args) -> int:
    from . import compile_program, run_compiled
    from .runtime.errors import CommunicationError
    from .runtime.faults import FaultPlan
    from .runtime.harness import RetryPolicy
    from .runtime.options import RuntimeOptions

    source = open(args.program).read()
    compiled = compile_program(source, _options_from(args))
    runtime_options = RuntimeOptions(backend=args.backend)
    if args.recv_timeout is not None:
        runtime_options = runtime_options.with_(
            recv_timeout_s=args.recv_timeout
        )
    if getattr(args, "comm_latency", None):
        runtime_options = runtime_options.with_(
            comm_latency_s=args.comm_latency
        )
    if args.fault_spec:
        try:
            plan = FaultPlan.parse(args.fault_spec, seed=args.fault_seed)
        except ValueError as exc:
            raise SystemExit(f"--fault-spec: {exc}")
        runtime_options = runtime_options.with_(fault_plan=plan)
    fallback = tuple(
        name.strip()
        for name in (args.fallback_backends or "").split(",")
        if name.strip()
    )
    if fallback:
        runtime_options = runtime_options.with_(fallback_backends=fallback)
    retry_policy = (
        RetryPolicy(max_attempts=args.retries + 1)
        if args.retries or fallback
        else None
    )
    try:
        outcome = run_compiled(
            compiled,
            params=_parse_params(args.param),
            nprocs=args.nprocs,
            validate=not args.no_validate,
            backend=args.backend,
            runtime_options=runtime_options,
            retry_policy=retry_policy,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    except CommunicationError as exc:
        print(f"run failed: {type(exc).__name__}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        for record in getattr(exc, "attempts", []):
            print(
                f"  attempt {record.attempt} [{record.backend}]: "
                f"{record.outcome}",
                file=sys.stderr,
            )
        return 1
    status = "skipped" if args.no_validate else "OK"
    print(f"validation: {status}")
    print(f"backend:    {outcome.backend}")
    if len(outcome.attempts) > 1:
        print("attempts:")
        for record in outcome.attempts:
            backoff = (
                f" (backoff {record.backoff_s * 1e3:.0f} ms)"
                if record.backoff_s
                else ""
            )
            print(
                f"  {record.attempt}: [{record.backend}] "
                f"{record.outcome}{backoff}"
            )
    print(f"processors: {args.nprocs}")
    print(f"messages:   {outcome.stats.total_messages} "
          f"({outcome.stats.total_bytes} payload bytes, "
          f"{outcome.stats.total_copies} copied)")
    print(f"collectives: "
          f"{sum(r.trace.collectives for r in outcome.results)}")
    print(f"predicted time: {outcome.predicted_time * 1e3:.3f} ms "
          f"(serial estimate {outcome.serial_time * 1e3:.3f} ms, "
          f"speedup {outcome.speedup:.2f}x)")
    if outcome.timings:
        print(f"measured wall-clock: "
              f"spec {outcome.spec_wall_s * 1e3:.3f} ms · "
              f"launch {outcome.launch_wall_s * 1e3:.3f} ms · "
              f"max-rank {outcome.max_rank_wall_s * 1e3:.3f} ms")
        for t in outcome.timings:
            comm = (
                f", comm {t.comm_wall_s * 1e3:.3f} ms"
                if t.comm_wall_s else ""
            )
            print(f"  rank {t.rank}: {t.wall_s * 1e3:.3f} ms{comm}")
    sched = outcome.stats.scheduler
    if sched:
        print(
            f"scheduler:  {sched.get('workers')} workers, "
            f"{sched.get('executed')}/{sched.get('units')} units, "
            f"{sched.get('steals')} steals, "
            f"ready depth {sched.get('max_ready_depth')}, "
            f"critical path {sched.get('critical_path_units')} units / "
            f"{float(sched.get('critical_path_s', 0.0)) * 1e3:.3f} ms"
        )
        plan_shape = sched.get("plan") or {}
        print(
            f"  plan: {plan_shape.get('templates', 0)} templates -> "
            f"{plan_shape.get('sccs', 0)} SCCs "
            f"({plan_shape.get('cycles_collapsed', 0)} cycles collapsed, "
            f"{plan_shape.get('loops_unrolled', 0)} loops unrolled, "
            f"{plan_shape.get('edges', 0)} edges)"
        )
    cache_stats = compiled.phases.cache_stats
    if compiled.cache_hit:
        print("compile cache: warm (artifact reused)")
    elif cache_stats:
        hits = sum(e.get("hits", 0) for e in cache_stats.values())
        lookups = hits + sum(
            e.get("misses", 0) for e in cache_stats.values()
        )
        print(f"set-op memoization: {hits}/{lookups} lookups hit "
              f"({100.0 * hits / max(lookups, 1):.1f}%)")
    for name in sorted(outcome.results[0].scalars):
        print(f"scalar {name} = {outcome.results[0].scalars[name]}")
    if args.profile_sets:
        for line in compiled.phases.format_set_stats():
            print(line)
        if not compiled.phases.set_stats:
            print("(set-engine profile empty: artifact served from the "
                  "compile cache)")
    return 0


def cmd_sets(args) -> int:
    from .isets import enumerate_points, parse_map, parse_set
    from .isets.errors import ParseError

    params = _parse_params(args.param)
    text = args.expression
    try:
        obj = parse_set(text)
    except ParseError:
        obj = parse_map(text)
    print(obj)
    if not obj.space.is_map:
        try:
            points = enumerate_points(obj, params)
        except Exception as exc:
            print(f"(not enumerable: {exc})")
            return 0
        print(f"{len(points)} point(s):")
        for point in points[: args.limit]:
            print("  ", point)
        if len(points) > args.limit:
            print(f"   ... {len(points) - args.limit} more")
    return 0


def _resolve_cache_dir(args) -> str:
    from .cache.persist import default_cache_dir

    return args.cache_dir or default_cache_dir()


def cmd_cache_stats(args) -> int:
    from .cache.manager import caches
    from .cache.persist import CompileCache

    cache = CompileCache(_resolve_cache_dir(args))
    stats = cache.stats()
    print(f"compile cache: {stats['dir']}")
    print(f"  artifacts: {stats['entries']} "
          f"({stats['bytes'] / 1024.0:.1f} KiB)")
    rows = [s for s in caches.stats().values() if s.lookups or s.size]
    if rows:
        print("in-process memoization caches:")
        for s in rows:
            print(f"  {s.name:28s} {s.hits:8d} hits {s.misses:8d} misses "
                  f"{100.0 * s.hit_rate:6.1f}% "
                  f"{s.size}/{s.maxsize} entries")
    return 0


def cmd_cache_clear(args) -> int:
    from .cache.persist import CompileCache

    cache = CompileCache(_resolve_cache_dir(args))
    removed = cache.clear()
    print(f"removed {removed} artifact(s) from {cache.root}")
    return 0


def _wire_options_from(args) -> dict:
    """Compile options as the service wire dict (``cache_dir`` stays
    server-side and is deliberately not sent)."""
    return {
        "coalesce": not args.no_coalesce,
        "inplace": not args.no_inplace,
        "loop_split": args.loop_split,
        "active_vp": not args.no_active_vp,
        "buffer_mode": args.buffer_mode,
        "compute": args.compute,
        "caching": args.caching,
    }


def cmd_serve(args) -> int:
    import threading

    from .runtime.faults import FaultPlan
    from .service.server import create_server

    pool_fault_plan = None
    if args.pool_fault_spec:
        try:
            pool_fault_plan = FaultPlan.parse(
                args.pool_fault_spec, seed=args.pool_fault_seed
            )
        except ValueError as exc:
            print(f"error: --pool-fault-spec: {exc}", file=sys.stderr)
            return 2
    server = create_server(
        host=args.host,
        port=args.port,
        cache_dir=_resolve_cache_dir(args),
        quiet=not args.verbose,
        workers=args.workers,
        queue_depth=args.queue_depth,
        quarantine_after=args.quarantine_after,
        compile_deadline_s=args.compile_deadline_s,
        pool_fault_plan=pool_fault_plan,
    )
    host, port = server.server_address[:2]
    service = server.service
    store = service.store
    print(f"compile service listening on http://{host}:{port}")
    print(f"artifact store: {store.root} "
          f"(up to {store.CAPACITY} artifacts)")
    if service.pool is not None:
        service.wait_ready(timeout_s=30.0)
        print(f"compile pool: {service.pool.alive_workers()}/"
              f"{args.workers} workers up, queue depth "
              f"{args.queue_depth}, quarantine after "
              f"{args.quarantine_after} kills")

    # SIGTERM = graceful drain: readiness flips to 503, in-flight work
    # finishes, workers stop (terminate→join→kill), then the accept
    # loop exits.  SIGINT (^C) takes the same path via KeyboardInterrupt.
    def _drain(signum, frame):
        threading.Thread(
            target=server.shutdown_gracefully, daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        service.begin_drain()
    finally:
        service.close()
        server.server_close()
    return 0


def cmd_submit(args) -> int:
    import json as _json

    from .service.client import ServiceClient, ServiceError

    with open(args.program) as handle:
        source = handle.read()
    client = ServiceClient(url=args.url, host=args.host, port=args.port)
    fallback = tuple(
        name.strip()
        for name in (args.fallback_backends or "").split(",")
        if name.strip()
    )
    try:
        if args.compile_only:
            response = client.compile(
                source, options=_wire_options_from(args)
            )
        else:
            response = client.run(
                source,
                params=_parse_params(args.param),
                nprocs=args.nprocs,
                backend=args.backend,
                validate=not args.no_validate,
                options=_wire_options_from(args),
                retries=args.retries,
                fallback_backends=fallback,
                fault_spec=args.fault_spec,
                fault_seed=args.fault_seed,
                recv_timeout_s=args.recv_timeout,
                run_timeout_s=args.run_timeout,
            )
    except ServiceError as exc:
        if args.json and exc.payload:
            print(_json.dumps(exc.payload, indent=2, sort_keys=True))
        else:
            print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()

    if args.json:
        print(_json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1

    if not response.get("ok"):
        error = response.get("error", {})
        print(f"submit failed: {error.get('type', 'Error')}",
              file=sys.stderr)
        print(error.get("message", ""), file=sys.stderr)
        for record in error.get("attempts", []):
            print(
                f"  attempt {record['attempt']} [{record['backend']}]: "
                f"{record['outcome']}",
                file=sys.stderr,
            )
        return 1
    print(f"fingerprint: {response['fingerprint']}")
    print(f"cache:       {response['cache']} "
          f"({response['compile_ms']:.1f} ms)")
    outcome = response.get("outcome")
    if outcome:
        print(f"backend:     {outcome['backend']}")
        print(f"processors:  {outcome['nprocs']}")
        print(f"validation:  "
              f"{'OK' if response.get('validated') else 'skipped'}")
        print(f"messages:    {outcome['messages']} "
              f"({outcome['payload_bytes']} payload bytes)")
        print(f"predicted time: {outcome['predicted_ms']:.3f} ms "
              f"(speedup {outcome['speedup']:.2f}x)")
        for name, value in outcome.get("scalars", {}).items():
            print(f"scalar {name} = {value}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="dHPF reproduction: integer-set data-parallel compiler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a mini-HPF program")
    p_compile.add_argument("program")
    what = p_compile.add_mutually_exclusive_group()
    what.add_argument("--source", action="store_true",
                      help="print the generated SPMD node program")
    what.add_argument("--listing", action="store_true",
                      help="print the compilation listing (default)")
    what.add_argument("--phases", action="store_true",
                      help="print the compile-time phase breakdown")
    _add_option_flags(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_run = sub.add_parser("run", help="run on an execution backend")
    p_run.add_argument("program")
    p_run.add_argument("--nprocs", type=int, default=4)
    p_run.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_run.add_argument("--no-validate", action="store_true")
    p_run.add_argument(
        "--backend", default="threads", metavar="NAME",
        help="execution backend: threads (default), mp "
             "(one OS process per rank), inproc-seq (deterministic "
             "sequential reference), or taskgraph (statement-instance "
             "DAG with work stealing)")
    p_run.add_argument(
        "--recv-timeout", type=float, default=None, metavar="SECONDS",
        help="blocking-receive timeout before a run is declared "
             "deadlocked (default: $REPRO_RECV_TIMEOUT_S or 60)")
    p_run.add_argument(
        "--fault-spec", default=None, metavar="SPEC",
        help="inject faults: 'kind[:rank=R][:op=OP][:n=N][:ms=MS]"
             "[:attempts=A]' joined by ';' — kinds: drop, delay, dup, "
             "crash, kill, shm-alloc, jitter")
    p_run.add_argument(
        "--fault-seed", type=int, default=0, metavar="SEED",
        help="seed for the fault schedule; the same seed replays the "
             "same chaos run byte-identically")
    p_run.add_argument(
        "--fallback-backends", default=None, metavar="NAMES",
        help="comma-separated backends the supervisor degrades to after "
             "the primary exhausts its retries (e.g. 'threads,inproc-seq')")
    p_run.add_argument(
        "--retries", type=_retries, default=0, metavar="N",
        help="re-launch up to N times per backend on transient failures "
             "(rank crash, timeout, launch error), with deterministic "
             "exponential backoff")
    p_run.add_argument(
        "--comm-latency", type=float, default=0.0, metavar="SECONDS",
        help="simulated per-message link latency honored by the threads "
             "and taskgraph backends (for measuring comm/compute overlap)")
    _add_option_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sets = sub.add_parser("sets", help="evaluate a set expression")
    p_sets.add_argument("expression")
    p_sets.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_sets.add_argument("--limit", type=int, default=50)
    p_sets.set_defaults(func=cmd_sets)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent compile cache"
    )
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    p_cstats = cache_sub.add_parser("stats", help="show cache contents")
    p_cstats.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="cache directory (default: $REPRO_CACHE_DIR "
                               "or ~/.cache/repro-dhpf)")
    p_cstats.set_defaults(func=cmd_cache_stats)
    p_cclear = cache_sub.add_parser("clear", help="delete cached artifacts")
    p_cclear.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="cache directory (default: $REPRO_CACHE_DIR "
                               "or ~/.cache/repro-dhpf)")
    p_cclear.set_defaults(func=cmd_cache_clear)

    p_serve = sub.add_parser(
        "serve", help="start the long-lived compile server"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8737)
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="compile-cache directory, shared with "
                              "compile/run (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro-dhpf)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="compile worker processes (0 = compile "
                              "in-process, no pool)")
    p_serve.add_argument("--queue-depth", type=int, default=16,
                         help="bounded dispatch queue size; submits "
                              "beyond it are shed with HTTP 429")
    p_serve.add_argument("--quarantine-after", type=int, default=3,
                         help="quarantine a request fingerprint after "
                              "it kills this many distinct workers")
    p_serve.add_argument("--compile-deadline-s", type=float, default=60.0,
                         help="per-request compile deadline; a worker "
                              "exceeding it is killed and replaced")
    p_serve.add_argument("--pool-fault-spec", default=None,
                         help="chaos: worker-crash/worker-stall fault "
                              "plan for the pool (testing)")
    p_serve.add_argument("--pool-fault-seed", type=int, default=0)
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a compile+run request to a compile server"
    )
    p_submit.add_argument("program")
    p_submit.add_argument("--url", default=None, metavar="URL",
                          help="server base URL (overrides --host/--port)")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8737)
    p_submit.add_argument("--nprocs", type=int, default=4)
    p_submit.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_submit.add_argument("--no-validate", action="store_true")
    p_submit.add_argument("--backend", default=None, metavar="NAME")
    p_submit.add_argument("--compile-only", action="store_true",
                          help="compile to an artifact without running")
    p_submit.add_argument("--json", action="store_true",
                          help="print the machine-readable JSON response")
    p_submit.add_argument("--retries", type=_retries, default=0,
                          metavar="N")
    p_submit.add_argument("--fallback-backends", default=None,
                          metavar="NAMES")
    p_submit.add_argument("--fault-spec", default=None, metavar="SPEC")
    p_submit.add_argument("--fault-seed", type=int, default=0,
                          metavar="SEED")
    p_submit.add_argument("--recv-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="blocking-receive timeout for the run")
    p_submit.add_argument("--run-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="whole-launch timeout for the run")
    _add_option_flags(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    from .isets.errors import ParseError

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        # Bad set expression, missing file, no server: the user's mistake.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
