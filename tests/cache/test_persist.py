"""Persistent compile cache: fingerprints, round-trips, fault tolerance."""

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

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
        "hits": 0, "misses": 0, "stores": 0, "evictions": 0,
    }
    options = CompilerOptions(cache_dir=str(tmp_path / "fresh"))
    compile_program(PROGRAM, options)
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["bytes"] > 0
    assert cache.clear() == 1
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0  # idempotent


# -- the bound: counters, LRU eviction, cross-process races ---------------


def synthetic_fp(serial: int) -> str:
    """A synthetic 64-hex fingerprint (distinct in its 40-hex file prefix)."""
    return hashlib.sha256(str(serial).encode()).hexdigest()


def test_stats_skips_an_artifact_unlinked_mid_listing(tmp_path, monkeypatch):
    """An eviction or clear elsewhere may unlink a listed file before its
    stat; stats() (and so ``GET /stats``) must not fail on it."""
    cache = CompileCache(str(tmp_path))
    cache.store(synthetic_fp(0), "kept")
    listed = [cache.path_for(synthetic_fp(0)), cache.path_for(synthetic_fp(1))]
    monkeypatch.setattr(cache, "_artifacts", lambda: listed)
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] == listed[0].stat().st_size


def test_round_trip_and_stats(tmp_path):
    cache = CompileCache(str(tmp_path))
    payload = {"program": "jacobi", "blob": list(range(32))}
    fp = synthetic_fp(7)
    assert cache.load(fp) is None
    cache.store(fp, payload)
    assert cache.load(fp) == payload
    stats = cache.stats()
    assert (stats["entries"], stats["hits"], stats["misses"],
            stats["stores"], stats["evictions"]) == (1, 1, 1, 1, 0)
    # Flat layout: the artifact sits directly in the cache directory.
    assert cache.path_for(fp).parent == tmp_path


def test_lru_eviction_bounds_capacity(tmp_path, monkeypatch):
    monkeypatch.setattr(CompileCache, "CAPACITY", 2)
    cache = CompileCache(str(tmp_path))
    fps = [synthetic_fp(i) for i in range(5)]
    for i, fp in enumerate(fps):
        cache.store(fp, {"serial": i})
        # Deterministic recency without sleeping between stores.
        os.utime(cache.path_for(fp), (100.0 + i, 100.0 + i))
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["evictions"] == 3
    assert cache.load(fps[0]) is None  # oldest gone
    assert cache.load(fps[4]) == {"serial": 4}  # newest kept


def test_hit_refreshes_recency(tmp_path, monkeypatch):
    monkeypatch.setattr(CompileCache, "CAPACITY", 2)
    cache = CompileCache(str(tmp_path))
    a, b, c = (synthetic_fp(i) for i in range(3))
    cache.store(a, "A")
    cache.store(b, "B")
    os.utime(cache.path_for(a), (100.0, 100.0))
    os.utime(cache.path_for(b), (200.0, 200.0))
    assert cache.load(a) == "A"  # refreshes a's mtime to now
    cache.store(c, "C")  # evicts the oldest, which is now b
    assert cache.load(b) is None
    assert cache.load(a) == "A"
    assert cache.load(c) == "C"


def test_threaded_counters_lose_no_updates(tmp_path, monkeypatch):
    """The service shares one CompileCache across its handler threads."""
    monkeypatch.setattr(CompileCache, "CAPACITY", 4)
    cache = CompileCache(str(tmp_path))
    threads, rounds = 8, 40

    def worker(seed: int) -> None:
        for i in range(rounds):
            fp = synthetic_fp((seed + i) % 8)
            cache.store(fp, {"fp": fp})
            loaded = cache.load(fp)
            assert loaded is None or loaded == {"fp": fp}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(worker, t) for t in range(threads)]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    stats = cache.stats()
    assert stats["stores"] == threads * rounds
    assert stats["hits"] + stats["misses"] == threads * rounds
    assert 0 < stats["entries"] <= 4
    assert stats["evictions"] >= 4  # eight keys through four slots


def _race_worker(root, worker, iterations, result_queue):
    """Hammer one cache directory: store + load a small shared key space."""
    try:
        cache = CompileCache(root)
        for i in range(iterations):
            serial = (worker + i) % 6
            fp = synthetic_fp(serial)
            cache.store(fp, {"serial": serial, "blob": "x" * 256})
            loaded = cache.load(fp)
            # A concurrent eviction may have removed it, but a present
            # artifact must never be torn or belong to another key.
            if loaded is not None and loaded["serial"] != serial:
                result_queue.put(f"worker {worker}: wrong payload for {fp}")
                return
        result_queue.put("ok")
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        result_queue.put(f"worker {worker}: {type(exc).__name__}: {exc}")


def test_multiprocess_write_race(tmp_path, monkeypatch):
    """Four writer processes race stores, loads, and evictions on one
    directory; every surviving artifact must load clean afterwards."""
    monkeypatch.setattr(CompileCache, "CAPACITY", 3)  # forked children see it
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    workers = [
        ctx.Process(target=_race_worker,
                    args=(str(tmp_path), w, 25, queue))
        for w in range(4)
    ]
    for p in workers:
        p.start()
    outcomes = [queue.get(timeout=120) for _ in workers]
    for p in workers:
        p.join(timeout=30)
        assert p.exitcode == 0
    assert outcomes == ["ok"] * 4
    # Post-mortem: bound respected, every artifact valid.
    cache = CompileCache(str(tmp_path))
    assert 0 < cache.stats()["entries"] <= 3
    for serial in range(6):
        loaded = cache.load(synthetic_fp(serial))
        if loaded is not None:
            assert loaded["serial"] == serial
    # No stranded tmp files (a crashed or raced writer cleans up).
    assert list(tmp_path.rglob(".tmp-*")) == []


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
