"""Figure 7 reproduction: speedups of the generated code.

The paper's Figure 7 shows IBM SP-2 speedups for three codes; the *shapes*
we reproduce on the simulated machine:

* (a) TOMCATV, (BLOCK,*): moderate speedups at the small problem size —
  the two global max-reductions per step bound scaling — and clearly
  better scaling at the large size;
* (b) ERLEBACHER, (*,*,BLOCK): limited, sub-linear speedup (z-pipeline
  with many small messages plus a broadcast-like panel read), improving
  with problem size;
* (c) JACOBI, (BLOCK,BLOCK) on 2x(P/2): near-linear scaling.

Sizes are scaled down from the paper's (Python executes every statement
interpretively) but keep the same small-vs-large relationships.
"""

import pytest

from repro.programs import erlebacher, jacobi, tomcatv

from conftest import emit, speedup_series

PROCS = (1, 2, 4, 8, 16)
PROCS_2D = (2, 4, 8, 16)  # 2 x (nprocs/2) grids need an even count


def _report(name, series):
    emit(f"{name}: " + "  ".join(
        f"p={p}:{s:.2f}x" for p, s in sorted(series.items())
    ))


@pytest.mark.benchmark(group="fig7a")
def test_fig7a_tomcatv_small_vs_large(benchmark):
    def run():
        _, small, _, _ = speedup_series(
            tomcatv(), {"n": 48, "niter": 2}, PROCS
        )
        _, large, _, _ = speedup_series(
            tomcatv(), {"n": 144, "niter": 2}, PROCS
        )
        return small, large

    small, large = benchmark.pedantic(run, rounds=1, iterations=1)
    _report("TOMCATV small (48^2)", small)
    _report("TOMCATV large (144^2)", large)

    # Moderate speedups at the small size...
    assert 1.2 < small[16] < 12.0
    # ...and the large problem scales distinctly better (paper: "for the
    # larger problem, we see that the scaling improves").
    assert large[16] > 1.25 * small[16]
    assert large[16] > 6.0
    # Speedup grows monotonically with processors at the large size.
    values = [large[p] for p in PROCS]
    assert values == sorted(values)


@pytest.mark.benchmark(group="fig7b")
def test_fig7b_erlebacher_pipeline_bound(benchmark):
    def run():
        _, small, _, stats = speedup_series(
            erlebacher(), {"n": 10, "nz": 24, "niter": 2}, PROCS
        )
        _, large, _, _ = speedup_series(
            erlebacher(), {"n": 20, "nz": 48, "niter": 2}, PROCS
        )
        return small, large, stats

    small, large, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    _report("ERLEBACHER small (10.10.24)", small)
    _report("ERLEBACHER large (20.20.48)", large)
    emit(f"  messages at p=8 (small): {stats[8].total_messages} "
         f"(pipeline: many small messages)")

    # Clearly sub-linear: the pipeline and broadcast dominate.
    assert small[8] < 5.0
    assert large[8] < 7.0
    # Larger problems scale better (paper: "fairly good scaling in
    # performance for the larger problem size").
    assert large[8] >= small[8]
    # The pipeline generates at least one message per (iteration, boundary).
    assert stats[8].total_messages >= 7


@pytest.mark.benchmark(group="fig7c")
def test_fig7c_jacobi_near_linear(benchmark):
    def run():
        _, series, _, stats = speedup_series(
            jacobi(), {"n": 192, "niter": 2}, PROCS_2D
        )
        return series, stats

    series, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    _report("JACOBI (192^2, BLOCK x BLOCK)", series)

    # Paper: "the speedup scales linearly as should be expected for this
    # simple, regular stencil code."  We require near-linear efficiency
    # (the paper ran far larger problems per processor; at this scaled-down
    # size the perimeter-to-area ratio at p=16 already costs a few percent).
    for p in PROCS_2D:
        efficiency = series[p] / p
        floor = 0.75 if p <= 4 else 0.55
        assert efficiency > floor, f"p={p}: efficiency {efficiency:.2f}"
    assert series[16] > 8.0
    values = [series[p] for p in PROCS_2D]
    assert values == sorted(values)


@pytest.mark.benchmark(group="fig7")
def test_fig7_relative_difficulty(benchmark):
    """Cross-code shape: JACOBI scales best, ERLEBACHER worst (paper's
    three panels side by side)."""
    def run():
        _, jac, _, _ = speedup_series(
            jacobi(), {"n": 128, "niter": 2}, (8,)
        )
        _, tom, _, _ = speedup_series(
            tomcatv(), {"n": 128, "niter": 2}, (8,)
        )
        _, erl, _, _ = speedup_series(
            erlebacher(), {"n": 12, "nz": 32, "niter": 2}, (8,)
        )
        return jac[8], tom[8], erl[8]

    jac8, tom8, erl8 = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"speedups at p=8: JACOBI {jac8:.2f}  TOMCATV {tom8:.2f}  "
         f"ERLEBACHER {erl8:.2f}")
    assert jac8 > erl8
    assert tom8 > erl8
