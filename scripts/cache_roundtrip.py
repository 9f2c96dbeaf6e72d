#!/usr/bin/env python
"""CI gate: persistent compile-cache round-trip.

Compiles a set of benchmark programs twice against one shared cache
directory and asserts, for each program:

* the second compile is served from the persistent cache (``cache_hit``);
* cold and warm artifacts emit **byte-identical** node programs;
* the ``caching="off"`` A/B path emits that same byte-identical program;
* the warm compile is faster than the cold one;
* kernel-qualified statements survive the round-trip: the warm
  artifact's ``kernel_report`` matches the cold one's (with at least
  one vectorized statement), and the two compute planes
  (``compute="kernels"`` / ``"scalar"``) key distinct cache entries.

It then runs the full-benchmark identity suite: each of the six
benchmark programs (jacobi, tomcatv, erlebacher, gauss, redblack,
sp_like) must compile — cold, warm, and on the ``caching="off"`` A/B
path — to a node program whose SHA-256 matches the pinned value below.
The pins freeze the artifact bytes across optimization work on the set
engine: any change to them means an optimization leaked into the
emitted representation and must either be fixed or consciously
re-pinned with a DESIGN.md justification.  The suite compiles the
programs in sequence inside one process, so order-dependent solver
state (fresh-name counters) that leaks into an artifact shows up as a
pin mismatch — this is how the redblack counter-nondeterminism was
caught and is kept fixed.

Finally it boots the compile service in-process and gates the service
path: a submitted compile must produce an artifact byte-identical to
the local one, a resubmit must be a hot hit, and one run per backend
(threads / mp / inproc-seq / taskgraph) through the service must agree
on traffic and results.

Exits non-zero (with a diagnostic) on any violation.

Usage::

    PYTHONPATH=src python scripts/cache_roundtrip.py [--cache-dir DIR]
    PYTHONPATH=src python scripts/cache_roundtrip.py --quick  # skip the
        six-benchmark identity suite (70 s of the full run's 75 s on the
        reference host; sp_like's two uncached arms are 40 s of it)
"""

import argparse
import hashlib
import sys
import tempfile
import time

from repro import compile_program
from repro.cache.manager import reset_caches
from repro.core.options import CompilerOptions
from repro.isets.profile import reference_arm
from repro.programs import (
    erlebacher,
    gauss,
    jacobi,
    redblack,
    sp_like,
    tomcatv,
)

JACOBI_1D = """
program roundtrip
  parameter n
  real a(n), b(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    b(i) = i
    a(i) = 0.0
  end do
  do i = 2, n - 1
    a(i) = b(i-1) + b(i+1)
  end do
end
"""


def programs():
    return {
        "jacobi_1d": JACOBI_1D,
        "sp_small_fixed": sp_like(
            symbolic_procs=False, routines=1, nests_per_routine=2
        ),
        "sp_small_symbolic": sp_like(
            symbolic_procs=True, routines=1, nests_per_routine=1
        ),
    }


#: SHA-256 of the node program each benchmark must emit (every cache
#: mode).  Re-pinned with the disjointness pretest (DESIGN §14): when two
#: conjuncts' presolve windows prove them disjoint, subtraction returns
#: the minuend whole instead of a fan of prefix-decomposition fragments,
#: so disjoint unions reach code generation with fewer, simpler pieces —
#: a deliberate representation change (validated by the execution suite),
#: not a leak.  redblack remains the canonical artifact of the
#: determinism fix (stride residues reduced mod their modulus at
#: emission).  Re-pinned again when codegen began scanning the
#: self-inclusive communication maps (DESIGN §11): every partner still
#: receives the same elements, in fewer disjoint pieces.  Re-pinned when
#: codegen began writing each event once, as an ``_ev_<tag>`` function
#: called at every anchor: same messages, a fraction of the bytes.
BENCHMARK_SHAS = {
    "jacobi": (
        "4d68453f1c0727507891e4035a4603fed8b3fe8e162ef8f914a9f756499867e0"
    ),
    "tomcatv": (
        "20ad5e7605a69b54da3325b1d3a48ec659bd3c3e8671812261e82488faf37d84"
    ),
    "erlebacher": (
        "9e8ae9b91affaaaac022139cedaa028a56a89c43115c4a7f1a4a759f39922caf"
    ),
    "gauss": (
        "60bca4dbeb7479b8515d988d0b83bae8fc7ea04ac1a856f7368e5016042a0015"
    ),
    "redblack": (
        "d08b3722d495e7c0f240b5b6fa2ce6fb7b62c0ab13814eb80179a4e89cdf1232"
    ),
    "sp_like": (
        "b730dae2feb8a422c3dabfada6f03eaaf979fa99c4eb757c7ca6b7a46e304ebf"
    ),
}


def benchmark_sources():
    return {
        "gauss": gauss(),
        "tomcatv": tomcatv(),
        "erlebacher": erlebacher(),
        "redblack": redblack(),
        "jacobi": jacobi(),
        "sp_like": sp_like(),
    }


def check_benchmark(name: str, source: str, cache_dir: str) -> None:
    """Cold / warm / caching=off / presolve-off compiles all match the
    pinned sha.

    The last arm is the presolve byte-identity A/B (DESIGN §14): with
    ``reference_arm(presolve_off=True)`` *and* every cache bypassed, the compiler must
    emit the same bytes as the presolve-accelerated path — the presolve
    engine's verdicts may only short-circuit decisions, never change a
    representation.
    """
    expected = BENCHMARK_SHAS[name]
    options = CompilerOptions(cache_dir=cache_dir)
    reset_caches()
    t0 = time.perf_counter()
    cold = compile_program(source, options)
    cold_s = time.perf_counter() - t0
    sha = hashlib.sha256(cold.source.encode()).hexdigest()
    if sha != expected:
        raise AssertionError(
            f"{name}: cold artifact sha {sha[:12]}… != pinned "
            f"{expected[:12]}… — an optimization changed the emitted bytes"
        )
    warm = compile_program(source, options)
    if not warm.cache_hit or warm.source != cold.source:
        raise AssertionError(f"{name}: warm artifact differs from cold")
    t0 = time.perf_counter()
    uncached = compile_program(source, CompilerOptions(caching="off"))
    off_s = time.perf_counter() - t0
    if uncached.source != cold.source:
        raise AssertionError(
            f"{name}: caching=off emitted a different program"
        )
    with reference_arm(presolve_off=True):
        t0 = time.perf_counter()
        no_presolve = compile_program(source, CompilerOptions(caching="off"))
        np_s = time.perf_counter() - t0
    if no_presolve.source != cold.source:
        raise AssertionError(
            f"{name}: presolve-off compile emitted a different program — "
            "a presolve verdict leaked into the representation"
        )
    print(
        f"ok benchmark {name}: sha pinned, cold {cold_s:.2f}s, "
        f"caching=off {off_s:.2f}s, presolve-off {np_s:.2f}s, "
        "all byte-identical"
    )


def check(name: str, source: str, cache_dir: str) -> None:
    options = CompilerOptions(cache_dir=cache_dir)

    reset_caches()
    t0 = time.perf_counter()
    cold = compile_program(source, options)
    cold_s = time.perf_counter() - t0
    if cold.cache_hit:
        raise AssertionError(f"{name}: first compile unexpectedly warm")

    t0 = time.perf_counter()
    warm = compile_program(source, options)
    warm_s = time.perf_counter() - t0
    if not warm.cache_hit:
        raise AssertionError(f"{name}: second compile missed the cache")
    if warm.source != cold.source:
        raise AssertionError(f"{name}: warm artifact differs from cold")
    if warm_s >= cold_s:
        raise AssertionError(
            f"{name}: warm compile not faster "
            f"({warm_s:.3f}s vs {cold_s:.3f}s cold)"
        )

    # The compute plane's qualification log is part of the artifact:
    # a warm hit must replay the same kernel_report the cold compile
    # produced, including its vectorized statements.
    cold_report = list(cold.module.kernel_report)
    warm_report = list(warm.module.kernel_report)
    if warm_report != cold_report:
        raise AssertionError(
            f"{name}: kernel_report changed across the cache round-trip"
        )
    vectorized = sum(
        1 for _, _, status, _ in warm_report if status == "vectorized"
    )
    if not vectorized:
        raise AssertionError(
            f"{name}: no kernel-qualified statement survived the warm hit"
        )

    uncached = compile_program(source, CompilerOptions(caching="off"))
    if uncached.source != cold.source:
        raise AssertionError(
            f"{name}: caching=off emitted a different program"
        )

    # The scalar plane keys its own cache entry: same source, other
    # compute option must not be served the kernels artifact.
    scalar = compile_program(
        source, CompilerOptions(cache_dir=cache_dir, compute="scalar")
    )
    if scalar.source == cold.source:
        raise AssertionError(
            f"{name}: scalar plane returned the kernels artifact"
        )
    if any(s == "vectorized" for _, _, s, _ in scalar.module.kernel_report):
        raise AssertionError(
            f"{name}: scalar plane artifact reports vectorized statements"
        )

    print(
        f"ok {name}: cold {cold_s:.2f}s, warm {warm_s * 1e3:.1f}ms "
        f"({cold_s / max(warm_s, 1e-9):.0f}x), {vectorized} kernel "
        f"stmt(s) replayed, caching=off identical, scalar plane keyed apart"
    )


def check_service(cache_dir: str) -> None:
    """The same byte-identity guarantee, taken through the service."""
    import threading

    from repro.service import ServiceClient, create_server
    from repro.service.protocol import sha256_text

    reset_caches()
    local_sha = sha256_text(
        compile_program(JACOBI_1D, CompilerOptions(caching="off")).source
    )

    server = create_server(port=0, cache_dir=cache_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        with ServiceClient(host=host, port=port) as client:
            cold = client.compile(JACOBI_1D)
            if not cold.get("ok"):
                raise AssertionError(f"service: compile failed: {cold}")
            if cold["artifact_sha256"] != local_sha:
                raise AssertionError(
                    "service: submitted artifact differs from the "
                    "single-client compile"
                )
            warm = client.compile(JACOBI_1D)
            if warm["cache"] != "hot":
                raise AssertionError(
                    f"service: resubmit not served hot ({warm['cache']})"
                )
            if warm["artifact_sha256"] != local_sha:
                raise AssertionError(
                    "service: hot artifact differs from the cold one"
                )

            # One artifact, every backend: the served program must run
            # identically on each execution substrate.
            signatures = {}
            for backend in ("threads", "mp", "inproc-seq", "taskgraph"):
                response = client.run(
                    JACOBI_1D, params={"n": 16}, nprocs=2,
                    backend=backend,
                )
                if not response.get("ok"):
                    raise AssertionError(
                        f"service: {backend} run failed: "
                        f"{response.get('error')}"
                    )
                if response["artifact_sha256"] != local_sha:
                    raise AssertionError(
                        f"service: {backend} ran a different artifact"
                    )
                outcome = response["outcome"]
                signatures[backend] = (
                    outcome["messages"],
                    outcome["payload_bytes"],
                    tuple(sorted(outcome["scalars"].items())),
                )
            if len(set(signatures.values())) != 1:
                raise AssertionError(
                    f"service: backends disagree: {signatures}"
                )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    print(
        "ok service: submit byte-identical to local compile, resubmit "
        "hot, threads/mp/inproc-seq/taskgraph runs agree"
    )


def check_pooled_service(cache_dir: str) -> None:
    """The pinned-sha gate, taken through the supervised worker pool.

    A pooled cold compile runs in a forked worker process and travels
    back over a pipe as a pickle — this asserts that detour changes not
    one byte: the jacobi benchmark artifact must still match its
    ``BENCHMARK_SHAS`` pin, and a graceful drain must leak no children.
    """
    import multiprocessing
    import threading

    from repro.service import ServiceClient, create_server

    reset_caches()
    server = create_server(port=0, cache_dir=cache_dir, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        if not server.service.wait_ready(timeout_s=60.0):
            raise AssertionError("pooled service: workers never came up")
        host, port = server.server_address
        with ServiceClient(host=host, port=port) as client:
            cold = client.compile(jacobi())
            if not cold.get("ok"):
                raise AssertionError(
                    f"pooled service: compile failed: {cold}"
                )
            if cold["cache"] != "cold":
                raise AssertionError(
                    f"pooled service: expected a cold compile, got "
                    f"{cold['cache']!r}"
                )
            if cold["artifact_sha256"] != BENCHMARK_SHAS["jacobi"]:
                raise AssertionError(
                    "pooled service: jacobi artifact sha "
                    f"{cold['artifact_sha256'][:12]}… != pinned "
                    f"{BENCHMARK_SHAS['jacobi'][:12]}… — the pool "
                    "round-trip changed the emitted bytes"
                )
            warm = client.compile(jacobi())
            if warm["cache"] != "hot":
                raise AssertionError(
                    f"pooled service: resubmit not hot ({warm['cache']})"
                )
            if warm["artifact_sha256"] != cold["artifact_sha256"]:
                raise AssertionError(
                    "pooled service: hot artifact differs from cold"
                )
    finally:
        server.shutdown_gracefully(timeout_s=60.0)
        server.server_close()
        thread.join(timeout=10)
    leftover = multiprocessing.active_children()
    if leftover:
        raise AssertionError(
            f"pooled service: leaked worker processes: {leftover}"
        )
    print(
        "ok pooled service: worker-compiled jacobi matches the pinned "
        "sha, resubmit hot, drained with zero leaked children"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="shared cache directory (default: a tmp dir)")
    parser.add_argument("--quick", action="store_true",
                        help="skip the six-benchmark identity suite "
                             "(several minutes of full compiles)")
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-cc-")
    print(f"cache dir: {cache_dir}")
    failures = 0
    for name, source in programs().items():
        try:
            check(name, source, cache_dir)
        except AssertionError as exc:
            print(f"FAIL {exc}", file=sys.stderr)
            failures += 1
    if not args.quick:
        bench_cache = tempfile.mkdtemp(prefix="repro-bench-")
        for name, source in benchmark_sources().items():
            try:
                check_benchmark(name, source, bench_cache)
            except AssertionError as exc:
                print(f"FAIL {exc}", file=sys.stderr)
                failures += 1
    try:
        check_service(tempfile.mkdtemp(prefix="repro-svc-"))
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        failures += 1
    try:
        check_pooled_service(tempfile.mkdtemp(prefix="repro-pool-"))
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
