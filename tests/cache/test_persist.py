"""Persistent compile cache: fingerprints, round-trips, fault tolerance."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import compile_program
from repro.cache.persist import (
    FORMAT_VERSION,
    CompileCache,
    compute_fingerprint,
    default_cache_dir,
    options_fingerprint_fields,
)
from repro.core.options import CompilerOptions

PROGRAM = """
program persist
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


# -- fingerprints ----------------------------------------------------------


def test_fingerprint_changes_on_source_edit():
    options = CompilerOptions()
    base = compute_fingerprint(PROGRAM, options)
    assert compute_fingerprint(PROGRAM, options) == base
    assert compute_fingerprint(PROGRAM + "\n", options) != base


def test_fingerprint_changes_on_every_semantic_option_field():
    base_options = CompilerOptions()
    base = compute_fingerprint(PROGRAM, base_options)
    flipped = {
        "coalesce": False,
        "inplace": False,
        "loop_split": True,
        "active_vp": False,
        "buffer_mode": "direct",
        "compute": "scalar",
    }
    semantic = set(options_fingerprint_fields(base_options))
    assert semantic == set(flipped), (
        "CompilerOptions grew a semantic field; extend this test so the "
        "fingerprint provably covers it"
    )
    for name, value in flipped.items():
        variant = dataclasses.replace(base_options, **{name: value})
        assert compute_fingerprint(PROGRAM, variant) != base, name


def test_fingerprint_ignores_cache_control_fields():
    base = compute_fingerprint(PROGRAM, CompilerOptions())
    assert compute_fingerprint(
        PROGRAM, CompilerOptions(caching="off", cache_dir="/elsewhere")
    ) == base


def test_fingerprint_changes_on_version_bump():
    options = CompilerOptions()
    assert compute_fingerprint(PROGRAM, options, version="1.0.0") != \
        compute_fingerprint(PROGRAM, options, version="1.0.1")


def test_default_cache_dir_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().endswith("repro-dhpf")


# -- store / load ----------------------------------------------------------


def test_compile_warm_start_round_trip(tmp_path):
    options = CompilerOptions(cache_dir=str(tmp_path))
    cold = compile_program(PROGRAM, options)
    assert not cold.cache_hit
    assert CompileCache(str(tmp_path)).stats()["entries"] == 1
    warm = compile_program(PROGRAM, options)
    assert warm.cache_hit
    assert warm.source == cold.source
    assert warm.phases.total_time() > 0  # wall_total survives pickling


def test_source_edit_misses_the_cache(tmp_path):
    options = CompilerOptions(cache_dir=str(tmp_path))
    compile_program(PROGRAM, options)
    edited = PROGRAM.replace("a(i) = 0.0", "a(i) = 1.0")
    recompiled = compile_program(edited, options)
    assert not recompiled.cache_hit
    assert CompileCache(str(tmp_path)).stats()["entries"] == 2


def test_option_change_misses_the_cache(tmp_path):
    compile_program(PROGRAM, CompilerOptions(cache_dir=str(tmp_path)))
    recompiled = compile_program(
        PROGRAM,
        CompilerOptions(cache_dir=str(tmp_path), coalesce=False),
    )
    assert not recompiled.cache_hit


def test_corrupted_artifact_falls_back_to_cold_compile(tmp_path):
    options = CompilerOptions(cache_dir=str(tmp_path))
    compile_program(PROGRAM, options)
    cache = CompileCache(str(tmp_path))
    fingerprint = compute_fingerprint(PROGRAM, options)
    path = cache.path_for(fingerprint)
    path.write_bytes(b"not a pickle at all")
    recompiled = compile_program(PROGRAM, options)
    assert not recompiled.cache_hit
    # The bad artifact was unlinked and replaced by the fresh store.
    assert pickle.loads(path.read_bytes())["fingerprint"] == fingerprint
    assert compile_program(PROGRAM, options).cache_hit


def test_truncated_artifact_falls_back_to_cold_compile(tmp_path):
    options = CompilerOptions(cache_dir=str(tmp_path))
    compile_program(PROGRAM, options)
    cache = CompileCache(str(tmp_path))
    path = cache.path_for(compute_fingerprint(PROGRAM, options))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    recompiled = compile_program(PROGRAM, options)
    assert not recompiled.cache_hit
    assert recompiled.source


def test_wrong_format_version_is_a_miss(tmp_path):
    options = CompilerOptions(cache_dir=str(tmp_path))
    compiled = compile_program(PROGRAM, options)
    cache = CompileCache(str(tmp_path))
    fingerprint = compute_fingerprint(PROGRAM, options)
    path = cache.path_for(fingerprint)
    payload = {
        "format": FORMAT_VERSION + 1,
        "fingerprint": fingerprint,
        "compiled": compiled,
    }
    path.write_bytes(pickle.dumps(payload))
    assert cache.load(fingerprint) is None
    assert not path.exists()  # stale artifact dropped


def test_stats_and_clear(tmp_path):
    cache = CompileCache(str(tmp_path / "fresh"))
    assert cache.stats() == {
        "dir": str(tmp_path / "fresh"), "entries": 0, "bytes": 0,
    }
    options = CompilerOptions(cache_dir=str(tmp_path / "fresh"))
    compile_program(PROGRAM, options)
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["bytes"] > 0
    assert cache.clear() == 1
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0  # idempotent


# -- artifact round-trip across all execution backends ---------------------


@pytest.mark.parametrize("backend", ["threads", "mp", "inproc-seq"])
def test_cached_artifact_runs_identically(tmp_path, backend):
    options = CompilerOptions(cache_dir=str(tmp_path))
    cold = compile_program(PROGRAM, options)
    warm = compile_program(PROGRAM, options)
    assert warm.cache_hit
    params = {"n": 17}
    ref = cold.run(params=params, nprocs=2, backend="inproc-seq")
    out = warm.run(params=params, nprocs=2, backend=backend)
    for rank in range(2):
        for name, expected in ref.results[rank].arrays.items():
            np.testing.assert_array_equal(
                out.results[rank].arrays[name], expected, err_msg=name
            )
        assert out.results[rank].scalars == ref.results[rank].scalars
