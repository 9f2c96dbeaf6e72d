"""Memoized set algebra and the cached/uncached A/B guarantee."""

import pytest

from repro import compile_program
from repro.cache.manager import caches, reset_caches
from repro.core.options import CompilerOptions
from repro.isets import parse_set
from repro.isets.omega import is_empty_conjunct
from repro.isets.profile import profiled, reference_arm

PROGRAM = """
program memo
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


def test_emptiness_memoized():
    reset_caches()
    [conjunct] = parse_set(
        "{[i] : 1 <= i <= 20 and exists(a : i = 3a)}"
    ).conjuncts
    empt = caches["isets.emptiness"]
    before = empt.stats()
    assert not is_empty_conjunct(conjunct)
    assert not is_empty_conjunct(conjunct)
    after = empt.stats()
    assert after.misses == before.misses + 1
    assert after.hits >= before.hits + 1


def test_emptiness_hit_across_alpha_variants():
    # The emptiness boolean is name-insensitive, so the alpha-canonical
    # Conjunct.key() lets renamed-apart copies share one entry.
    reset_caches()
    [conjunct] = parse_set(
        "{[i] : 1 <= i <= 20 and exists(a : i = 3a)}"
    ).conjuncts
    is_empty_conjunct(conjunct)
    empt = caches["isets.emptiness"]
    hits_before = empt.stats().hits
    renamed = conjunct.rename(
        {w: w + "_alpha" for w in conjunct.wildcards}
    )
    assert not is_empty_conjunct(renamed)
    assert empt.stats().hits == hits_before + 1


def test_set_algebra_memoized_on_identical_operands():
    reset_caches()
    s = parse_set("{[i] : 1 <= i <= 100}")
    t = parse_set("{[i] : 50 <= i <= 200}")
    first = s.intersect(t)
    second = s.intersect(t)
    assert second is first  # served from isets.setalg
    assert caches["isets.setalg"].stats().hits >= 1
    # Different operands do not collide.
    other = s.intersect(parse_set("{[i] : 60 <= i <= 200}"))
    assert other is not first


def test_subtract_and_simplify_memoized():
    reset_caches()
    s = parse_set("{[i] : 1 <= i <= 100}")
    empty1 = s.subtract(s)
    empty2 = s.subtract(s)
    assert empty1 is empty2
    assert empty1.is_empty()
    simp1 = s.simplify()
    simp2 = s.simplify()
    assert simp1 is simp2


def test_memoized_results_match_uncached():
    reset_caches()
    s = parse_set("{[i] : 1 <= i <= 100 and exists(a : i = 4a + 1)}")
    t = parse_set("{[i] : 13 <= i <= 61}")
    cached = s.intersect(t).simplify()
    with reference_arm(memo_off=True):
        uncached = s.intersect(t).simplify()
    assert str(cached) == str(uncached)
    assert sorted(map(tuple, _points(cached))) == sorted(
        map(tuple, _points(uncached))
    )


def _points(integer_set):
    from repro.isets import enumerate_points

    return enumerate_points(integer_set, {})


def test_compile_reports_nonzero_memo_hit_rate():
    # Acceptance criterion: a compile's phase report carries memoization
    # counters with a nonzero aggregate hit rate.
    reset_caches()
    compiled = compile_program(PROGRAM)
    stats = compiled.phases.cache_stats
    assert stats, "compile recorded no cache deltas"
    hits = sum(entry.get("hits", 0) for entry in stats.values())
    assert hits > 0
    table = compiled.phases.format_table("phases")
    assert "cache" in table
    assert "isets.emptiness" in table


def test_caching_off_emits_byte_identical_program():
    # Acceptance criterion: the uncached A/B path produces byte-identical
    # emitted programs (warm caches on the cached side, to make the
    # comparison as adversarial as possible).
    reset_caches()
    compile_program(PROGRAM)  # warm every memo cache
    cached = compile_program(PROGRAM)
    uncached = compile_program(PROGRAM, CompilerOptions(caching="off"))
    assert cached.source == uncached.source
    # (listing() is not compared: statement ids come from a global parse
    # counter and differ between any two compiles, cached or not.)
    # caching="off" must not populate or count against the caches.
    assert not uncached.phases.cache_stats


def test_one_gate_arms_and_profiler_leave_the_program_alone():
    # The gate decides memoize-or-compute and time-or-not; neither decision
    # may reach the emitted bytes, and the two are independent: timing
    # moves no memo counter, the memo-off arm moves none at all.
    reset_caches()
    default = compile_program(PROGRAM).source
    unprofiled_counters = caches.counters()
    assert any(hits for hits, _, _ in unprofiled_counters.values())

    reset_caches()
    with profiled() as profiler:
        assert compile_program(PROGRAM).source == default
    assert profiler.ops["normalize"].calls > 0
    assert caches.counters() == unprofiled_counters

    with reference_arm(presolve_off=True):
        assert compile_program(PROGRAM).source == default

    before = caches.counters()
    with reference_arm(memo_off=True):
        assert compile_program(PROGRAM).source == default
    assert caches.counters() == before


def test_invalid_caching_value_rejected():
    with pytest.raises(ValueError, match="caching"):
        compile_program(PROGRAM, CompilerOptions(caching="sometimes"))


def test_run_outcome_carries_cache_stats():
    reset_caches()
    compiled = compile_program(PROGRAM)
    outcome = compiled.run(params={"n": 17}, nprocs=2, backend="inproc-seq")
    assert outcome.cache_stats == compiled.phases.cache_stats
