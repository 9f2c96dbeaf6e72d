"""Cold-compile wall-clock vs the recorded seed baseline.

The set-engine performance work (profiler-driven: GCD/interval emptiness
pre-tests, corner-witness nonemptiness probe, syntactic redundancy fast
paths, O(n) normalize, eager subsumption pruning, incremental redundancy
removal, lazy interned hashes, and the bounds-propagation presolve with
its disjointness pretest) targets *cold* compile latency — a fresh
process with empty memoization caches, which is what an interactive user
pays.

``SEED_BASELINE_S`` records the cold compile times measured at the
pre-overhaul seed commit on the CI-class container this suite runs on;
``PRESOLVE_BASELINE_S`` the times measured just before the presolve +
disjointness-pretest round landed.  The test recompiles every benchmark
program cold under the set-op profiler, writes the comparison (including
the per-program presolve/fast-path counters) to ``BENCH_compile.json``,
and asserts three floors:

* jacobi must stay at least ``JACOBI_FLOOR``x faster than its seed time
  *and* under ``JACOBI_ABS_S`` seconds absolute;
* sp_like and redblack must each stay at least ``PRESOLVE_FLOOR``x
  faster than their pre-presolve baselines.

Floors are deliberately set several times below the measured speedups
(jacobi measures ~35x against a 15x floor) so CI noise does not flake,
while a real algorithmic regression — losing the disjointness pretest
alone roughly quadruples jacobi and tenfolds redblack — still trips
them.
"""

import gc
import time

from repro import compile_program
from repro.cache.manager import reset_caches
from repro.core.options import CompilerOptions
from repro.isets.profile import profiled
from repro.programs import (
    erlebacher,
    gauss,
    jacobi,
    redblack,
    sp_like,
    tomcatv,
)

from conftest import emit, record_compile

#: Cold compile seconds at the pre-overhaul seed commit (measured on the
#: reference container, caching="on" with empty caches — the same
#: configuration this test runs).
SEED_BASELINE_S = {
    "jacobi": 89.26,
    "tomcatv": 2.19,
    "erlebacher": 1.35,
    "gauss": 0.10,
    "redblack": 43.96,
    "sp_like": 87.52,
}

#: Cold compile seconds measured immediately before the presolve +
#: disjointness-pretest round, same container.
PRESOLVE_BASELINE_S = {
    "jacobi": 16.882,
    "redblack": 7.227,
    "sp_like": 13.959,
}

#: Asserted floors (see module docstring).
JACOBI_FLOOR = 15.0
JACOBI_ABS_S = 5.0
PRESOLVE_FLOOR = 1.5

#: Per-program profiler events worth tracking release-over-release.
_TRACKED_EVENTS = (
    "presolve.empty",
    "presolve.implied",
    "presolve.pinned",
    "presolve.pin_eliminated",
    "presolve.rounds",
    "presolve.tightened",
    "fastpath.disjoint_pretest",
    "fastpath.batched_syntactic",
    "fastpath.corner_nonempty",
    "fastpath.interval_empty",
)


def _sources():
    return {
        "gauss": gauss(),
        "tomcatv": tomcatv(),
        "erlebacher": erlebacher(),
        "redblack": redblack(),
        "jacobi": jacobi(),
        "sp_like": sp_like(),
    }


def test_cold_compile_speedup_floor():
    rows = {}
    for name, source in _sources().items():
        # Timed compile runs unprofiled — the floors gate what a user
        # pays, and the per-record profiler overhead is material on the
        # normalize-heavy programs.  A second cold compile under the
        # profiler collects the fast-path counters.  Garbage from the
        # earlier programs is collected and frozen before the clock
        # starts: without it the later programs in the loop pay up to a
        # second of collector sweeps over dead objects they never
        # allocated, which is allocator noise, not compile cost.
        reset_caches()
        gc.collect()
        gc.freeze()
        try:
            start = time.perf_counter()
            compiled = compile_program(source, CompilerOptions())
            elapsed = time.perf_counter() - start
        finally:
            gc.unfreeze()
        assert not compiled.cache_hit, f"{name}: cold compile was warm"
        reset_caches()
        with profiled() as prof:
            compile_program(source, CompilerOptions())
        events = prof.snapshot()["events"]
        seed = SEED_BASELINE_S[name]
        rows[name] = {
            "cold_s": round(elapsed, 3),
            "seed_s": seed,
            "speedup": round(seed / elapsed, 2),
            "set_ops": {
                key: events[key] for key in _TRACKED_EVENTS if key in events
            },
        }
        emit(
            f"{name:12s} cold {elapsed:7.2f}s  seed {seed:7.2f}s  "
            f"{seed / elapsed:5.1f}x"
        )
    record_compile(
        "cold_compile",
        {
            "programs": rows,
            "jacobi_floor": JACOBI_FLOOR,
            "jacobi_abs_s": JACOBI_ABS_S,
            "presolve_floor": PRESOLVE_FLOOR,
            "presolve_baseline_s": PRESOLVE_BASELINE_S,
        },
    )
    jacobi_speedup = rows["jacobi"]["speedup"]
    assert jacobi_speedup >= JACOBI_FLOOR, (
        f"jacobi cold compile regressed: {jacobi_speedup:.1f}x vs the "
        f"asserted {JACOBI_FLOOR:.0f}x floor over the seed baseline "
        f"({rows['jacobi']['cold_s']:.1f}s vs {SEED_BASELINE_S['jacobi']}s)"
    )
    assert rows["jacobi"]["cold_s"] < JACOBI_ABS_S, (
        f"jacobi cold compile {rows['jacobi']['cold_s']:.1f}s breached the "
        f"{JACOBI_ABS_S:.0f}s absolute budget"
    )
    for name in ("sp_like", "redblack"):
        baseline = PRESOLVE_BASELINE_S[name]
        ratio = baseline / rows[name]["cold_s"]
        assert ratio >= PRESOLVE_FLOOR, (
            f"{name} cold compile regressed: {ratio:.2f}x vs the asserted "
            f"{PRESOLVE_FLOOR:.1f}x floor over the pre-presolve baseline "
            f"({rows[name]['cold_s']:.1f}s vs {baseline}s)"
        )


def test_gist_batching_counters():
    """Record the fast-path counter deltas to ``BENCH_compile.json``.

    ``incremental_redundancies`` screens fresh constraints with one
    per-conjunct syntactic index instead of a per-constraint context
    rescan, and ``disjoint_subtract`` skips whole subtract pairs via the
    presolve disjointness pretest.  Both fast paths must demonstrably fire on a real compile — a
    silent regression to the slow path would not change any result, only
    the compile time, so the counters are the regression test.  jacobi
    is the probe program: it exercises the largest disjoint
    decompositions of the suite.
    """
    reset_caches()
    with profiled() as prof:
        start = time.perf_counter()
        compile_program(jacobi(), CompilerOptions())
        elapsed = time.perf_counter() - start
    snapshot = prof.snapshot()
    events = snapshot["events"]
    incr = snapshot["ops"].get("incremental_redundancies", {})
    payload = {
        "program": "jacobi",
        "cold_s": round(elapsed, 3),
        "incremental_redundancies_calls": incr.get("calls", 0),
        "incremental_redundancies_s": incr.get("seconds", 0.0),
        "batched_syntactic_hits": events.get(
            "fastpath.batched_syntactic", 0
        ),
        "residual_rescan_hits": events.get(
            "fastpath.syntactic_redundant", 0
        ),
        "corner_probe_hits": events.get("fastpath.corner_nonempty", 0),
        "disjoint_pretest_hits": events.get(
            "fastpath.disjoint_pretest", 0
        ),
        "presolve_empties": events.get("presolve.empty", 0),
        "presolve_implied": events.get("presolve.implied", 0),
        "presolve_pinned": events.get("presolve.pinned", 0),
    }
    emit(
        f"fast paths: {payload['disjoint_pretest_hits']} disjoint "
        f"pretests, {payload['batched_syntactic_hits']} batched vs "
        f"{payload['residual_rescan_hits']} rescan hits, "
        f"{payload['corner_probe_hits']} corner probes in "
        f"{elapsed:.2f}s"
    )
    record_compile("set_engine_batching", payload)
    assert payload["batched_syntactic_hits"] > 1_000, (
        "the batched syntactic screen stopped firing — gisting has "
        "fallen back to per-constraint context rescans"
    )
    assert payload["disjoint_pretest_hits"] > 1_000, (
        "the presolve disjointness pretest stopped firing — subtraction "
        "has fallen back to full gist-and-negate on disjoint pairs"
    )
