"""Integration tests for the Figure 4(b) loop-splitting schedule."""

import pytest

from repro import CompilerOptions, compile_program, run_compiled

STENCIL_1D = """
program s1
  parameter n, niter
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
  do iter = 1, niter
    do i = 2, n - 1
      a(i) = b(i-1) + b(i+1)
    end do
    do i = 2, n - 1
      b(i) = a(i)
    end do
  end do
end
"""

STENCIL_2D = """
program s2
  parameter n, niter
  real a(n,n), b(n,n)
  processors p(nprocs)
  template t(n,n)
  align a(i,j) with t(i,j)
  align b(i,j) with t(i,j)
  distribute t(block, *) onto p
  do i = 1, n
    do j = 1, n
      b(i,j) = i + 2 * j
      a(i,j) = 0.0
    end do
  end do
  do iter = 1, niter
    do i = 2, n - 1
      do j = 1, n
        a(i,j) = b(i-1,j) + b(i+1,j)
      end do
    end do
    do i = 2, n - 1
      do j = 1, n
        b(i,j) = a(i,j)
      end do
    end do
  end do
end
"""


@pytest.mark.parametrize("src", [STENCIL_1D, STENCIL_2D])
@pytest.mark.parametrize("mode", ["overlap", "direct"])
def test_split_programs_validate(src, mode):
    options = CompilerOptions(loop_split=True, buffer_mode=mode)
    compiled = compile_program(src, options)
    assert "# --- loop splitting" in compiled.source
    # the split event's two sides stay inline, around the local section
    assert "def _ev_" not in compiled.source
    for nprocs in (1, 3):
        run_compiled(
            compiled, params={"n": 14, "niter": 2}, nprocs=nprocs
        )


def test_split_emits_local_then_recv_then_nonlocal():
    compiled = compile_program(
        STENCIL_1D, CompilerOptions(loop_split=True)
    )
    source = compiled.source
    split_at = source.index("# --- loop splitting")
    send_at = source.index("rt.send", split_at)
    recv_at = source.index("rt.recv", split_at)
    assert send_at < recv_at
    # the local compute section sits between the send and the receive
    # (overlapping the message latency) — a vectorized kernel launch
    # under the default compute plane, a scalar loop otherwise
    between = source[send_at:recv_at]
    assert "# kernel piece over i" in between or "for i in range" in between

    scalar = compile_program(
        STENCIL_1D, CompilerOptions(loop_split=True, compute="scalar")
    ).source
    split_at = scalar.index("# --- loop splitting")
    between = scalar[
        scalar.index("rt.send", split_at):scalar.index("rt.recv", split_at)
    ]
    assert "for i in range" in between


def test_split_reduces_checks_in_direct_mode():
    base = run_compiled(
        compile_program(
            STENCIL_2D, CompilerOptions(buffer_mode="direct")
        ),
        params={"n": 14, "niter": 2},
        nprocs=3,
    )
    split = run_compiled(
        compile_program(
            STENCIL_2D,
            CompilerOptions(buffer_mode="direct", loop_split=True),
        ),
        params={"n": 14, "niter": 2},
        nprocs=3,
    )
    assert split.stats.total_checks < base.stats.total_checks


def test_split_skipped_when_reduction_present():
    src = STENCIL_1D.replace(
        "      b(i) = a(i)",
        "      b(i) = a(i)\n      s = max(s, a(i))",
    ).replace("  real a(n), b(n)", "  real a(n), b(n)\n  scalar s")
    compiled = compile_program(src, CompilerOptions(loop_split=True))
    run_compiled(compiled, params={"n": 14, "niter": 2}, nprocs=3)


def test_split_skipped_for_cyclic_vp():
    src = STENCIL_1D.replace(
        "distribute t(block)", "distribute t(cyclic)"
    )
    compiled = compile_program(src, CompilerOptions(loop_split=True))
    run_compiled(compiled, params={"n": 14, "niter": 2}, nprocs=3)
