"""Integration tests: compile mini-HPF programs, run the generated SPMD
code on the simulated machine, and validate every array element against
the serial interpreter (the strongest end-to-end check we have)."""

import pytest

from repro import CompilerOptions, compile_program, run_compiled
from repro.programs import (
    erlebacher,
    gauss,
    jacobi,
    sp_like,
    tomcatv,
    widehalo,
)
from repro.runtime.harness import ValidationError


def _check(src, params, procs, options=None):
    compiled = compile_program(src, options)
    outcomes = {}
    for p in procs:
        outcomes[p] = run_compiled(compiled, params=params, nprocs=p)
    return compiled, outcomes


class TestBenchmarkPrograms:
    def test_jacobi_validates(self):
        _, outcomes = _check(jacobi(), {"n": 14, "niter": 2}, (2, 4))
        assert outcomes[4].stats.total_messages > 0

    def test_tomcatv_validates(self):
        _, outcomes = _check(tomcatv(), {"n": 12, "niter": 2}, (1, 3))
        # max-reductions become collectives
        assert outcomes[3].results[0].trace.collectives > 0

    def test_erlebacher_validates(self):
        _, outcomes = _check(
            erlebacher(), {"n": 5, "nz": 9, "niter": 2}, (1, 3)
        )
        assert outcomes[3].stats.total_messages > 0

    def test_gauss_validates(self):
        _check(gauss(), {"n": 11}, (1, 2, 4))

    def test_sp_like_validates(self):
        src = sp_like(routines=2, nests_per_routine=1)
        _check(src, {"n": 6, "niter": 1}, (2, 4))

    @pytest.mark.xfail(
        strict=True,
        raises=ValidationError,
        reason="known miscompile: each rank's my_p_0 is derived from "
        "template t's block size and reused for template s, so with "
        "m != n rank 1 initialises the wrong rows of w (every backend)",
    )
    def test_widehalo_validates_with_unequal_templates(self):
        _check(widehalo(), {"n": 16, "m": 64, "niter": 1}, (4,))


class TestDistributions:
    TEMPLATE = """
program d
  parameter n
  real a(n), b(n)
  processors PROCS
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(FMT) onto p
  do i = 1, n
    b(i) = 3 * i
    a(i) = 0.0
  end do
  do i = 2, n - 1
    a(i) = b(i-1) + b(i+1)
  end do
end
"""

    @pytest.mark.parametrize(
        "fmt,procs,nprocs",
        [
            ("block", "p(4)", 4),
            ("block", "p(nprocs)", 3),
            ("cyclic", "p(4)", 4),
            ("cyclic", "p(nprocs)", 3),
            ("cyclic(2)", "p(2)", 2),
            ("cyclic(2)", "p(nprocs)", 2),
        ],
    )
    def test_shift_stencil_all_distributions(self, fmt, procs, nprocs):
        src = self.TEMPLATE.replace("FMT", fmt).replace("PROCS", procs)
        compiled = compile_program(src)
        run_compiled(compiled, params={"n": 13}, nprocs=nprocs)

    def test_2d_block_block(self):
        src = """
program d2
  parameter n
  real a(n,n), b(n,n)
  processors p(2, nprocs / 2)
  template t(n,n)
  align a(i,j) with t(i,j)
  align b(i,j) with t(i,j)
  distribute t(block, block) onto p
  do i = 1, n
    do j = 1, n
      b(i,j) = i + 2 * j
      a(i,j) = 0.0
    end do
  end do
  do i = 2, n - 1
    do j = 2, n - 1
      a(i,j) = b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1)
    end do
  end do
end
"""
        compiled = compile_program(src)
        run_compiled(compiled, params={"n": 12}, nprocs=4)

    def test_transpose_like_communication(self):
        src = """
program tr
  real a(20,20), b(20,20)
  processors p(4)
  template t(20,20)
  align a(i,j) with t(i,j)
  align b(i,j) with t(i,j)
  distribute t(block, *) onto p
  do i = 1, 20
    do j = 1, 20
      b(i,j) = i * 100 + j
    end do
  end do
  do i = 1, 20
    do j = 1, 20
      a(i,j) = b(j,i)
    end do
  end do
end
"""
        compiled = compile_program(src)
        out = run_compiled(compiled, params={}, nprocs=4)
        assert out.stats.total_messages > 0


class TestOptimizationVariants:
    STENCIL = """
program s
  parameter n
  real a(n), b(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    b(i) = i * 1.5
    a(i) = 0.0
  end do
  do iter = 1, 3
    do i = 2, n - 1
      a(i) = b(i-1) + b(i+1)
    end do
    do i = 2, n - 1
      b(i) = a(i)
    end do
  end do
end
"""

    # Two reads needing data from the *same* neighbor: coalescing merges
    # their messages, so disabling it must increase the message count.
    SAME_NEIGHBOR = STENCIL.replace(
        "      a(i) = b(i-1) + b(i+1)", "      a(i) = b(i-1) + b(i-2)"
    ).replace("    do i = 2, n - 1\n      a(i)", "    do i = 3, n - 1\n      a(i)")

    def test_no_coalescing_still_correct(self):
        src = self.SAME_NEIGHBOR
        options = CompilerOptions(coalesce=False)
        out = run_compiled(
            compile_program(src, options), params={"n": 16}, nprocs=4
        )
        base = run_compiled(
            compile_program(src), params={"n": 16}, nprocs=4
        )
        assert out.stats.total_messages > base.stats.total_messages
        assert out.stats.total_bytes >= base.stats.total_bytes

    def test_no_inplace_still_correct(self):
        options = CompilerOptions(inplace=False)
        compiled = compile_program(self.STENCIL, options)
        out = run_compiled(compiled, params={"n": 16}, nprocs=4)
        base = run_compiled(
            compile_program(self.STENCIL), params={"n": 16}, nprocs=4
        )
        # disabling in-place cannot reduce copies
        assert out.stats.total_copies >= base.stats.total_copies

    def test_no_active_vp_still_correct(self):
        options = CompilerOptions(active_vp=False)
        compiled = compile_program(gauss(), options)
        run_compiled(compiled, params={"n": 10}, nprocs=2)


class TestNonOwnerComputes:
    def test_on_home_rhs_partitioning_runs(self):
        src = """
program noc
  real a(40), b(40)
  processors p(4)
  template t(40)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, 40
    b(i) = i
    a(i) = 0.0
  end do
  do i = 1, 39
    on_home b(i)
    a(i+1) = b(i) * 2
  end do
end
"""
        compiled = compile_program(src)
        out = run_compiled(compiled, params={}, nprocs=4)
        # non-owner-computes writes flush updates to the owners
        assert out.stats.total_messages > 0


class TestReductionCorrectness:
    def test_sum_reduction_with_nonzero_base(self):
        src = """
program red
  parameter n
  real a(n)
  scalar s
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    a(i) = i
  end do
  s = 100.0
  do i = 1, n
    s = s + a(i)
  end do
end
"""
        compiled = compile_program(src)
        out = run_compiled(compiled, params={"n": 10}, nprocs=2)
        assert out.results[0].scalars["s"] == pytest.approx(155.0)

    def test_min_reduction(self):
        src = """
program red2
  parameter n
  real a(n)
  scalar s
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    a(i) = 100 - i
  end do
  s = 1000.0
  do i = 1, n
    s = min(s, a(i))
  end do
end
"""
        compiled = compile_program(src)
        out = run_compiled(compiled, params={"n": 12}, nprocs=3)
        assert out.results[0].scalars["s"] == pytest.approx(88.0)


class TestStridedLoops:
    @pytest.mark.slow
    def test_redblack_strided_validates(self):
        from repro.programs import redblack

        compiled = compile_program(redblack())
        out = run_compiled(
            compiled, params={"n": 21, "niter": 2}, nprocs=2
        )
        assert out.stats.total_messages > 0
