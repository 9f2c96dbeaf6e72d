"""Unit tests for the cache registry (repro.cache.manager)."""

import threading

import pytest

from repro.cache.manager import CacheManager, LRUCache, caches
from repro.isets.profile import gate, reference_arm


def test_lru_evicts_least_recently_used():
    cache = LRUCache("t.lru", maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    # Touch "a" so "b" becomes the LRU entry.
    assert cache.lookup("a") == (True, 1)
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.lookup("b") == (False, None)
    assert cache.lookup("a") == (True, 1)
    assert cache.lookup("c") == (True, 3)


def test_counters_and_stats():
    cache = LRUCache("t.counters", maxsize=8)
    calls = []

    def compute():
        calls.append(1)
        return 42

    assert cache.memoize("k", compute) == 42
    assert cache.memoize("k", compute) == 42
    assert len(calls) == 1  # second lookup served from cache
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
    assert stats.lookups == 2
    assert stats.hit_rate == pytest.approx(0.5)


def test_put_existing_key_does_not_evict():
    cache = LRUCache("t.update", maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # update in place, no eviction
    assert cache.evictions == 0
    assert cache.lookup("a") == (True, 10)


def test_reset_clears_entries_and_counters():
    cache = LRUCache("t.reset", maxsize=4)
    cache.put("a", 1)
    cache.lookup("a")
    cache.lookup("zzz")
    cache.reset()
    assert len(cache) == 0
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)


def test_maxsize_must_be_positive():
    with pytest.raises(ValueError):
        LRUCache("t.bad", maxsize=0)


def test_manager_register_is_idempotent():
    manager = CacheManager()
    a = manager.register("x", maxsize=10)
    b = manager.register("x", maxsize=10)
    assert a is b
    # One name, one bound: a second owner asking for a different size is
    # an error, not a silently shared cache.
    with pytest.raises(ValueError, match="already registered"):
        manager.register("x", maxsize=999)
    assert a.maxsize == 10
    assert "x" in manager
    assert manager["x"] is a
    assert manager.names() == ("x",)


def test_manager_disabled_bypasses_cache():
    manager = CacheManager()
    cache = manager.register("y")
    calls = []

    def compute():
        calls.append(1)
        return "v"

    def memoize():
        return gate(None, compute, memo=cache.memoize, key="k")

    with reference_arm(memo_off=True):
        with reference_arm(memo_off=True):  # re-entrant
            memoize()
        memoize()  # the outer arm is still on
        with reference_arm(presolve_off=True):  # the other arm: no effect
            memoize()
    # While disabled nothing was cached or counted.
    assert len(calls) == 3
    assert len(cache) == 0
    assert (cache.hits, cache.misses) == (0, 0)
    # Re-enabled: memoization works again.
    memoize()
    memoize()
    assert len(calls) == 4
    assert (cache.hits, cache.misses) == (1, 1)


def test_manager_counters_snapshot_delta():
    manager = CacheManager()
    cache = manager.register("z")
    before = manager.counters()
    assert manager.delta(before) == {}
    cache.memoize("k", lambda: 1)
    cache.memoize("k", lambda: 1)
    delta = manager.delta(before)
    assert delta == {"z": {"hits": 1, "misses": 1, "evictions": 0}}
    # A cache with no activity since the snapshot is omitted.
    manager.register("idle")
    assert "idle" not in manager.delta(before)


def test_manager_reset_resets_all_registered_caches():
    manager = CacheManager()
    a = manager.register("a")
    b = manager.register("b")
    a.put("k", 1)
    b.lookup("missing")
    manager.reset()
    assert len(a) == 0 and len(b) == 0
    assert b.misses == 0


def test_global_registry_has_expected_caches():
    import repro  # noqa: F401 -- ensure registrations ran

    for name in (
        "intern.conjunct",
        "isets.emptiness",
        "isets.normalize",
        "isets.redundancy",
        "isets.projection",
        "isets.setalg",
        "persist.compile",
    ):
        assert name in caches, name


def test_lru_cache_is_thread_safe_under_contention():
    cache = LRUCache("t.threads", maxsize=64)
    errors = []

    def worker(seed):
        try:
            for i in range(200):
                key = (seed * 7 + i) % 100
                cache.memoize(key, lambda k=key: k * 2)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = cache.stats()
    assert stats.lookups == 8 * 200
    assert stats.size <= 64
