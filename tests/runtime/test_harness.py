"""Unit tests for startup bindings and numeric ownership (validation)."""

import pytest

from repro import compile_program, programs
from repro.cache.manager import caches, reset_caches
from repro.hpf import DataMapping
from repro.isets.profile import profiled, reference_arm
from repro.lang import parse_program
from repro.runtime.harness import (
    _inplace_for_rank,
    build_launch_spec,
    eval_lang_expr,
    evaluate_bindings,
    owner_coordinate,
    rank_of_coords,
)
from repro.lang.ast import BinOp, Name, Num


def _mapping(src):
    return DataMapping(parse_program(src))


BLOCK_SYM = """
program x
  parameter n
  real a(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  distribute t(block) onto p
end
"""


class TestEvalLangExpr:
    def test_arithmetic(self):
        expr = BinOp("+", BinOp("*", Num(3), Name("n")), Num(1))
        assert eval_lang_expr(expr, {"n": 4}) == 13

    def test_fortran_division(self):
        expr = BinOp("/", Name("nprocs"), Num(2))
        assert eval_lang_expr(expr, {"nprocs": 7}) == 3


class TestBindings:
    def test_vp_block_binding(self):
        mapping = _mapping(BLOCK_SYM)
        env = evaluate_bindings(mapping, {"n": 100}, 4, 2)
        assert env["B_t_0"] == 25
        # vm = B*m + tlb = 25*2 + 1
        assert env["my_p_0"] == 51

    def test_grid_coords_row_major(self):
        src = BLOCK_SYM.replace(
            "processors p(nprocs)", "processors p(2, nprocs / 2)"
        ).replace("distribute t(block) onto p",
                  "distribute t(block) onto p")
        # rank 5 on a 2x4 grid: coords (1, 1)
        mapping = _mapping(
            """
program g
  real a(8,8)
  processors p(2, nprocs / 2)
  template t(8,8)
  align a(i,j) with t(i,j)
  distribute t(block, block) onto p
end
"""
        )
        env = evaluate_bindings(mapping, {}, 8, 5)
        # rank 5 on a 2x4 grid is coords (1, 1).  Dim 0 is exact block
        # (both extents constant): my_p_0 is the physical coordinate.
        # Dim 1 has a symbolic extent: my_p_1 is the VP-block coordinate
        # vm = B*m + 1 with B = ceil(8/4) = 2.
        assert env["my_p_0"] == 1
        assert env["my_p_1"] == 2 * 1 + 1

    def test_wrong_nprocs_rejected(self):
        mapping = _mapping(BLOCK_SYM.replace("p(nprocs)", "p(4)"))
        with pytest.raises(ValueError):
            evaluate_bindings(mapping, {"n": 16}, 3, 0)

    def test_missing_parameter_rejected(self):
        mapping = _mapping(BLOCK_SYM)
        with pytest.raises(ValueError):
            evaluate_bindings(mapping, {}, 2, 0)


class TestOwnership:
    def test_block_owner(self):
        mapping = _mapping(BLOCK_SYM)
        layout = mapping.layout("a")
        env = evaluate_bindings(mapping, {"n": 100}, 4, 0)
        assert owner_coordinate(layout, 0, (1,), env) == 0
        assert owner_coordinate(layout, 0, (25,), env) == 0
        assert owner_coordinate(layout, 0, (26,), env) == 1
        assert owner_coordinate(layout, 0, (100,), env) == 3

    def test_cyclic_owner(self):
        mapping = _mapping(
            BLOCK_SYM.replace("distribute t(block)", "distribute t(cyclic)")
        )
        layout = mapping.layout("a")
        env = evaluate_bindings(mapping, {"n": 100}, 4, 0)
        assert owner_coordinate(layout, 0, (1,), env) == 0
        assert owner_coordinate(layout, 0, (2,), env) == 1
        assert owner_coordinate(layout, 0, (6,), env) == 1

    def test_cyclic_k_owner(self):
        mapping = _mapping(
            BLOCK_SYM.replace(
                "distribute t(block)", "distribute t(cyclic(3))"
            )
        )
        layout = mapping.layout("a")
        env = evaluate_bindings(mapping, {"n": 100}, 2, 0)
        # blocks of 3, round robin on 2 procs: 1..3 -> 0, 4..6 -> 1, ...
        assert owner_coordinate(layout, 0, (3,), env) == 0
        assert owner_coordinate(layout, 0, (4,), env) == 1
        assert owner_coordinate(layout, 0, (7,), env) == 0

    def test_offset_alignment_owner(self):
        mapping = _mapping(
            """
program x
  real a(0:99)
  processors p(4)
  template t(100)
  align a(i) with t(i+1)
  distribute t(block) onto p
end
"""
        )
        layout = mapping.layout("a")
        env = evaluate_bindings(mapping, {}, 4, 0)
        # a(24) -> t(25) -> proc 0; a(25) -> t(26) -> proc 1
        assert owner_coordinate(layout, 0, (24,), env) == 0
        assert owner_coordinate(layout, 0, (25,), env) == 1


def test_rank_of_coords():
    assert rank_of_coords([2, 4], [1, 3]) == 7
    assert rank_of_coords([3], [2]) == 2


# ---------------------------------------------------------------------------
# launch budget: each run-time in-place check is evaluated once
# ---------------------------------------------------------------------------

LAUNCHABLE = {
    "jacobi": {"n": 16, "niter": 1},
    "tomcatv": {"n": 16, "niter": 1},
    "widehalo": {"n": 16, "m": 16, "niter": 1},
}


@pytest.fixture(scope="module", params=sorted(LAUNCHABLE))
def launchable(request):
    source = getattr(programs, request.param)()
    return compile_program(source), LAUNCHABLE[request.param]


def _calls(profiler, op):
    stats = profiler.ops.get(op)
    return stats.calls if stats else 0


@pytest.mark.parametrize("nprocs", (2, 4))
def test_launch_spec_evaluates_each_inplace_check_once(launchable, nprocs):
    compiled, params = launchable
    checks = compiled.module.runtime_inplace
    assert checks, "program has no run-time in-place checks to budget"
    reset_caches()

    with profiled() as first:
        spec = build_launch_spec(compiled, params, nprocs)
    budget = len(checks) * nprocs * (nprocs - 1)
    assert 0 < _calls(first, "inplace.evaluate_at_runtime") <= budget

    with profiled() as second:
        again = build_launch_spec(compiled, params, nprocs)
    assert _calls(second, "inplace.evaluate_at_runtime") == 0
    assert _calls(second, "is_empty_conjunct") == 0
    assert caches["core.inplace.runtime"].hits > 0

    flags = [b.inplace for b in spec.bindings]
    assert [b.inplace for b in again.bindings] == flags
    with reference_arm(memo_off=True):  # the memo is bypassed: a direct evaluation
        direct = [
            {
                name: _inplace_for_rank(result, layout, b.env, nprocs, b.rank)
                for name, result, layout in checks
            }
            for b in spec.bindings
        ]
        uncached = build_launch_spec(compiled, params, nprocs)
    assert flags == direct
    assert [b.inplace for b in uncached.bindings] == direct
