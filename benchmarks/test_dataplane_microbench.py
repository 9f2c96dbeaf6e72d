"""Data-plane microbenchmarks (→ ``BENCH_dataplane.json``).

Measures the section-descriptor data plane against the legacy
per-element path it replaced:

* **pack/unpack throughput** — ``pack_sections``/``scatter_sections``
  versus a faithful re-creation of the old element-list path (Python
  loop gathering indices into a list, Python loop scattering it back).
  The vectorized plane must be at least 3x faster.
* **validation** — every compiled configuration is checked
  element-by-element against the serial interpreter on all three
  backends.

Absolute times are machine-dependent; the recorded JSON gives future
PRs a trajectory, the assertions pin only the relative wins that
motivated the descriptor plane.
"""

import itertools
import time

import numpy as np
import pytest

from repro import compile_program, run_compiled
from repro.runtime.sections import (
    message_count,
    pack_sections,
    scatter_sections,
    section_view,
)

from conftest import emit, record_dataplane as _record

JACOBI_STYLE = """
program jacobi1d
  parameter n
  parameter niter
  real a(n), b(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    b(i) = i * 0.5
    a(i) = 0.0
  end do
  do iter = 1, niter
    do i = 2, n - 1
      a(i) = 0.5 * (b(i-1) + b(i+1))
    end do
    do i = 2, n - 1
      b(i) = a(i)
    end do
  end do
end
"""

# Same stencil with a 96-element reach: every boundary exchange moves a
# 96-element section, so the pack/transfer/scatter path dominates the
# per-rank compute and the data-plane difference shows up in wall-clock.
JACOBI_WIDE = """
program jacobiwide
  parameter n
  parameter niter
  real a(n), b(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    b(i) = i * 0.5
    a(i) = 0.0
  end do
  do iter = 1, niter
    do i = 97, n - 96
      a(i) = 0.5 * (b(i-96) + b(i+96))
    end do
    do i = 97, n - 96
      b(i) = a(i)
    end do
  end do
end
"""


# ---------------------------------------------------------------------------
# Pack/unpack throughput: vectorized sections vs the element-list path
# ---------------------------------------------------------------------------

def _section_points(section):
    kind, dims = section
    if kind == "S":
        return itertools.product(
            *(range(s, s + (c - 1) * t + 1, t) for s, c, t in dims)
        )
    return zip(*dims)


def _element_pack(array, lbounds, sections):
    """The pre-descriptor data plane: enumerate every (global) index in
    Python, gather into a list — exactly what the old generated pack
    loops plus ``rt.send(values=[...])`` did."""
    values = []
    for section in sections:
        for point in _section_points(section):
            local = tuple(g - lb for g, lb in zip(point, lbounds))
            values.append(float(array[local]))
    return values


def _element_scatter(array, lbounds, sections, values):
    pos = 0
    for section in sections:
        for point in _section_points(section):
            local = tuple(g - lb for g, lb in zip(point, lbounds))
            array[local] = values[pos]
            pos += 1
    return pos


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="dataplane")
def test_pack_unpack_throughput(benchmark):
    """Vectorized pack/scatter must beat the element-list path >= 3x."""
    n = 512
    src = np.arange(n * n, dtype=np.float64).reshape(n, n)
    dst = np.zeros_like(src)
    lb = (0, 0)
    cases = {
        # one boundary row: the common halo-exchange shape
        "contiguous_row": [("S", ((5, 1, 1), (0, n, 1)))],
        # one boundary column: strided in memory
        "strided_column": [("S", ((0, n, 1), (7, 1, 1)))],
        # an interior block, as coalesced multi-row messages produce
        "block_64x64": [("S", ((64, 64, 1), (64, 64, 1)))],
    }

    def run():
        rows = {}
        for label, sections in cases.items():
            nbytes = 8 * message_count(sections)

            def vec_roundtrip():
                payload, _, _ = pack_sections(
                    src, lb, sections, force_copy=True
                )
                scatter_sections(dst, lb, sections, payload)

            def elem_roundtrip():
                values = _element_pack(src, lb, sections)
                _element_scatter(dst, lb, sections, values)

            vec_s = _best_of(vec_roundtrip)
            elem_s = _best_of(elem_roundtrip)
            rows[label] = {
                "bytes": nbytes,
                "sections_mb_s": nbytes / vec_s / 1e6,
                "elements_mb_s": nbytes / elem_s / 1e6,
                "speedup": elem_s / vec_s,
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, row in rows.items():
        emit(
            f"pack+scatter {label:15s}: sections "
            f"{row['sections_mb_s']:9.1f} MB/s   elements "
            f"{row['elements_mb_s']:7.1f} MB/s   ({row['speedup']:.1f}x)"
        )
        # Roundtrip correctness, then the headline claim.
        for section in cases[label]:
            np.testing.assert_array_equal(
                section_view(dst, lb, section),
                section_view(src, lb, section),
            )
        assert row["speedup"] >= 3.0, (
            f"{label}: vectorized plane only {row['speedup']:.2f}x faster"
        )
    _record("pack_unpack_throughput", {"grid": [n, n], "results": rows})


# ---------------------------------------------------------------------------
# Validation: every backend, element-by-element vs the serial interpreter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["threads", "mp", "inproc-seq"])
def test_dataplane_validates_everywhere(backend):
    compiled = compile_program(JACOBI_WIDE)
    # validate=True raises on any element-wise mismatch vs the serial
    # interpreter.
    outcome = run_compiled(
        compiled, params={"n": 256, "niter": 2}, nprocs=4,
        backend=backend, validate=True,
    )
    assert outcome.stats.total_messages > 0


def test_dataplane_smoke():
    """Tiny always-fast end-to-end check; CI's benchmark-smoke job runs
    exactly this (mp backend, 2 ranks, validated)."""
    compiled = compile_program(JACOBI_STYLE)
    outcome = run_compiled(
        compiled, params={"n": 64, "niter": 2}, nprocs=2,
        backend="mp", validate=True,
    )
    assert outcome.stats.total_bytes_viewed > 0
