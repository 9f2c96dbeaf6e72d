"""From what a run recorded to the metrics BENCHMARK.json names.

End-to-end metrics come from untraced laps only.  A timing of one
program or cell is reported at the lower quartile of its laps
(``stats.typical``); a timing that covers several is the sum of theirs,
so one slow lap of one program does not move it.  Service latencies are
medians over requests, as their names say.  Per-layer metrics come from
the traced laps of a traced run; a layer a workload does not exercise
reads 0.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Iterable

from plans import BACKENDS
from stats import geomean, self_times, tail_percentile, typical

#: PhaseTimer phase -> per-layer metric.
PHASES = {
    "parse": "lang.parse_s",
    "data_mapping": "hpf.mapping_s",
    "partitioning": "core.partitioning_s",
    "comm_placement": "core.comm_placement_s",
    "communication_generation": "core.comm_sets_s",
    "active_vp": "core.active_vp_s",
    "check_contiguous": "core.inplace_s",
    "comm_outer_iters": "core.outer_iters_s",
    "codegen": "codegen.emit_s",
}

#: emptiness queries these events decided before any elimination ran.
PRETESTS = (
    "presolve.empty", "fastpath.gcd_empty", "fastpath.interval_empty",
    "fastpath.witness_cache_hit", "fastpath.corner_nonempty",
    "fastpath.repair_nonempty",
)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _typicals(samples: Dict[tuple, list], *prefix) -> Dict[tuple, float]:
    """Reported value per key, for the keys that start with ``prefix``."""
    return {
        key[len(prefix):]: typical(values)
        for key, values in samples.items()
        if key[:len(prefix)] == prefix and values
    }


def _total(samples, *prefix) -> float:
    return sum(_typicals(samples, *prefix).values())


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(spine, import_s: float) -> Dict[str, float]:
    plain = spine.rec.plain
    cold = _typicals(plain, "cold")
    return {
        "setup_s": import_s + spine.setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "compile_cold_s": sum(cold.values()),
        "compile_cold_geo_s": geomean(cold.values()),
        "code_bytes": sum(
            len(spine.artifacts[name].source) for name in spine.plan.cold
        ),
        "warm_load_s": _total(plain, "warm"),
        "recompile_hot_s": _total(plain, "hot"),
        "run_s": _total(plain, "run"),
        "rank_wall_s": _total(plain, "rank_wall"),
        "msg_bytes": sum(
            stats.total_bytes for stats in spine.cell_stats.values()
        ),
        "served_hot_p50_ms": 1e3 * _median(plain[("served", "hot")]),
        "served_cold_p50_ms": 1e3 * _median(plain[("served", "cold")]),
        "served_req_per_s": _median(plain[("round_rate",)]),
    }


def per_layer(spine) -> Dict[str, float]:
    rec = spine.rec
    traced, plain = rec.traced, rec.plain
    out: Dict[str, float] = {
        "fail_share": len(rec.failures) / max(rec.attempted, 1),
        "lang.interp_s": _total(traced, "interp"),
    }

    # compile phases (PhaseTimer), summed over the cold suite
    for phase, metric in PHASES.items():
        out[metric] = _total(traced, "phase", phase)
    out["core.inplace_s.sp_like"] = _total(
        traced, "phase", "check_contiguous", "sp_like"
    )
    out["codegen.emit_s.jacobi"] = _total(
        traced, "phase", "codegen", "jacobi"
    )
    out["core.phase_sum_share"] = min(
        _typicals(traced, "phase_share").values(), default=0.0
    )
    kinds = [
        entry[2]
        for name in spine.plan.cold
        for entry in spine.artifacts[name].module.kernel_report
    ]
    out["codegen.vectorized_stmts"] = kinds.count("vectorized")
    out["codegen.scalar_fallback_stmts"] = (
        len(kinds) - kinds.count("vectorized")
    )

    # set engine (SetOpProfiler snapshots of the traced cold compiles)
    calls: Dict[str, int] = {}
    events: Dict[str, int] = {}
    for counts in spine.set_counts.values():
        for op, n in counts["calls"].items():
            calls[op] = calls.get(op, 0) + n
        for event, n in counts["events"].items():
            events[event] = events.get(event, 0) + n
    for op, n in calls.items():
        out[f"isets.{op}.calls"] = n
        out[f"isets.{op}.s"] = _total(traced, "setop_s", op)
    for event, n in events.items():
        out[f"isets.{event}"] = n
    out["isets.pretest_resolved_share"] = (
        sum(events.get(e, 0) for e in PRETESTS)
        / max(calls.get("is_empty_conjunct", 0), 1)
    )
    out["isets.profile_overhead"] = _total(traced, "cold") / max(
        _total(plain, "cold"), 1e-12
    )

    # caches
    for kind, lrus in spine.memo.items():
        for lru, (hits, lookups) in lrus.items():
            if lru.startswith(("isets.", "intern.")):
                out[f"cache.memo.{lru}.hit_rate.{kind}"] = (
                    hits / max(lookups, 1)
                )
    out["cache.persist.load_s"] = _total(traced, "persist_load")
    out["cache.persist.store_s"] = _total(traced, "persist_store")
    out["cache.artifact_bytes"] = spine.artifact_bytes
    out["cache.nocache_s"] = _total(traced, "off")

    # runtime
    out["runtime.spec_s"] = _total(traced, "spec")
    out["runtime.hints_s"] = _total(traced, "hints")
    out["runtime.replay_s"] = _total(traced, "replay")
    for backend in BACKENDS:
        for metric, sample in (
            ("launch_s", "launch_wall"),
            ("rank_wall_max_s", "rank_wall"),
            ("comm_wall_max_s", "comm_wall"),
            ("launch_overhead_s", "launch_overhead"),
        ):
            out[f"runtime.{backend}.{metric}"] = sum(
                value for key, value in _typicals(traced, sample).items()
                if key[1] == backend
            )
    stats = list(spine.cell_stats.values())
    out["runtime.messages"] = sum(s.total_messages for s in stats)
    out["runtime.bytes_copied"] = sum(s.total_bytes_copied for s in stats)
    out["runtime.bytes_viewed"] = sum(s.total_bytes_viewed for s in stats)
    flops = sum(s.total_compute for s in stats)
    out["runtime.flops_vectorized_share"] = (
        sum(s.total_flops_vectorized for s in stats) / flops if flops else 0
    )
    reports = spine.scheduler.values()
    out["runtime.taskgraph.steals"] = sum(
        _median(r["steals"] for r in cell) for cell in reports
    )
    out["runtime.taskgraph.critical_path_s"] = sum(
        _median(r["critical_path_s"] for r in cell) for cell in reports
    )
    out["runtime.taskgraph.plan_build_s"] = spine.first_plan_build_s
    launches = _typicals(traced, "launch_wall")
    overlap = [
        launches[(cell, "threads")] / launches[(cell, "taskgraph")]
        for cell, backend in launches
        if backend == "taskgraph" and cell.startswith("widehalo")
        and (cell, "threads") in launches
    ]
    out["runtime.overlap_ratio"] = overlap[0] if overlap else 0.0

    # service
    hot = traced[("served", "hot")]
    cold = traced[("served", "cold")]
    hot_server = _median(traced[("served_server", "hot")])
    out["service.hot_server_ms"] = 1e3 * hot_server
    out["service.hot_transport_ms"] = 1e3 * (_median(hot) - hot_server)
    for name, values in (("hot", hot), ("cold", cold)):
        pct, value = tail_percentile(values) if values else (0.0, 0.0)
        out[f"service.{name}_tail_ms"] = 1e3 * value
        out[f"service.{name}_tail_pct"] = pct
        out[f"service.{name}_samples"] = len(values)
    out["service.fresh_conn_hot_p50_ms"] = 1e3 * _median(
        traced[("served", "fresh")]
    )
    out["service.run_p50_ms"] = 1e3 * _median(traced[("served", "run")])
    out["service.pool.ready_s"] = spine.pool_ready_s
    out["service.pool.cold_p50_ms"] = 1e3 * _median(
        traced[("served", "pool_cold")]
    )
    bursts = [r for r in spine.responses if r["kind"] == "burst"]
    redundant = len(bursts) - len({r["name"] for r in bursts})
    out["service.coalesce_rate"] = (
        sum(r["cache"] == "coalesced" for r in bursts) / redundant
        if redundant else 0.0
    )
    served = spine.service_stats
    flight = served.get("single_flight", {})
    store = served.get("store", {}).get("totals", {})
    out["service.singleflight.led"] = flight.get("led", 0)
    out["service.singleflight.coalesced"] = flight.get("coalesced", 0)
    out["service.store.hits"] = store.get("hits", 0)
    out["service.store.misses"] = store.get("misses", 0)
    out["service.store.stores"] = store.get("stores", 0)
    out["service.shed_429"] = served.get("counters", {}).get(
        "requests.shed", 0
    )
    out["service.client_retries"] = sum(
        r["retries"] for r in spine.responses
    )

    # what tracing itself costs: traced / untraced wall of the same
    # operations, and the share of traced operation time no child span
    # accounts for
    both = [k for k in traced if k in plain and k[0] in
            ("cold", "warm", "hot", "run")]
    out["trace.overhead"] = (
        sum(typical(traced[k]) for k in both)
        / max(sum(typical(plain[k]) for k in both), 1e-12)
    )
    own = self_times(rec.spans)
    roots = [s for s in rec.spans if s["parent"] == 0]
    out["trace.root_self_share"] = (
        sum(own[s["id"]] for s in roots)
        / max(sum(s["end"] - s["start"] for s in roots), 1e-12)
    )
    return out
