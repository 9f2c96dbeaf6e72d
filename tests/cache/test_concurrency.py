"""Concurrent CacheManager use: the thread-pool hammer gate.

The compile service runs many client compiles in one process, so the
memoization layer must hold up under threads: no lost counter updates,
no duplicate "canonical" interned instances, per-thread memo-off arm
scoping, and set-algebra results identical to a single-threaded run.
Runs under ``-W error`` in CI.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.cache.manager import LRUCache, caches
from repro.isets import parse_set
from repro.isets.ops import intern_conjunct
from repro.isets.profile import gate, reference_arm

THREADS = 8
OPS_PER_THREAD = 200


# -- LRUCache primitives under contention ----------------------------------


def test_counters_lose_no_updates_under_contention():
    cache = LRUCache("hammer.counters", maxsize=1024)
    lookups_per_thread = 500
    keyspace = 32

    def worker(seed: int) -> int:
        performed = 0
        for i in range(lookups_per_thread):
            key = (seed * i) % keyspace
            found, _ = cache.lookup(key)
            if not found:
                cache.put(key, key)
            performed += 1
        return performed

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        performed = sum(pool.map(worker, range(1, THREADS + 1)))
    stats = cache.stats()
    # Every lookup was counted exactly once: no lost increments.
    assert performed == THREADS * lookups_per_thread
    assert stats.hits + stats.misses == performed
    assert stats.size <= keyspace


def test_intern_is_atomic_one_instance_per_key():
    cache = LRUCache("hammer.intern", maxsize=1024)
    keyspace = 16
    barrier = threading.Barrier(THREADS, timeout=30)

    def worker(_: int):
        barrier.wait()  # maximize simultaneous first-touch races
        seen = {}
        for i in range(OPS_PER_THREAD):
            key = i % keyspace
            value = cache.intern(key, object())
            seen.setdefault(key, value)
            # Identity-stable within this thread's view...
            assert cache.intern(key, object()) is value
        return seen

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        views = list(pool.map(worker, range(THREADS)))
    # ...and across threads: exactly one canonical instance per key.
    for key in range(keyspace):
        instances = {id(view[key]) for view in views}
        assert len(instances) == 1, f"duplicate canonical value for {key}"
    stats = cache.stats()
    assert stats.misses == keyspace
    assert stats.hits + stats.misses == stats.lookups


def test_eviction_accounting_is_consistent_under_contention():
    cache = LRUCache("hammer.evict", maxsize=8)

    def worker(seed: int):
        for i in range(OPS_PER_THREAD):
            cache.put((seed, i), i)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(worker, range(THREADS)))
    stats = cache.stats()
    assert stats.size <= 8
    # Every insert beyond capacity was evicted exactly once.
    assert stats.evictions == THREADS * OPS_PER_THREAD - stats.size


# -- the real interner ------------------------------------------------------


def test_conjunct_interner_never_mints_duplicates():
    texts = [
        "{[i] : 1 <= i <= 40}",
        "{[i] : 2 <= i <= 39 and exists(a : i = 2a)}",
        "{[i,j] : 1 <= i <= 10 and i <= j <= 20}",
        "{[i,j] : 1 <= j <= 10 and j < i <= 30}",
    ]
    barrier = threading.Barrier(THREADS, timeout=30)

    def worker(_: int):
        barrier.wait()
        canon = []
        for _round in range(25):
            for text in texts:
                # Each parse builds fresh structurally-equal conjuncts.
                for conjunct in parse_set(text).conjuncts:
                    canon.append(
                        (conjunct.exact_key(),
                         id(intern_conjunct(conjunct)))
                    )
        return canon

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        results = list(pool.map(worker, range(THREADS)))
    by_key = {}
    for view in results:
        for key, identity in view:
            by_key.setdefault(key, set()).add(identity)
    assert by_key, "no conjuncts were interned"
    duplicates = {k: ids for k, ids in by_key.items() if len(ids) > 1}
    assert not duplicates, (
        f"{len(duplicates)} key(s) produced multiple canonical instances"
    )


# -- memoized set algebra under threads -------------------------------------


def test_concurrent_set_algebra_matches_single_threaded_reference():
    big = parse_set("{[i,j] : 1 <= i <= 30 and 1 <= j <= 30}")
    band = parse_set("{[i,j] : 1 <= i <= 30 and i <= j <= i + 4}")
    evens = parse_set(
        "{[i,j] : 1 <= i <= 30 and 1 <= j <= 30 and exists(a : j = 2a)}"
    )

    def algebra():
        inter = big.intersect(band).simplify()
        diff = big.subtract(evens).simplify()
        both = inter.intersect(evens).simplify()
        return (str(inter), str(diff), str(both),
                inter.is_empty(), both.is_empty())

    reference = algebra()

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        results = list(pool.map(lambda _: algebra(), range(THREADS * 4)))
    assert all(result == reference for result in results)


def test_disabled_is_scoped_to_the_calling_thread():
    cache = caches.register("hammer.scoped", maxsize=64)
    inside = threading.Event()
    proceed = threading.Event()
    observed = {}

    def disabled_thread():
        with reference_arm(memo_off=True):
            gate(None, lambda: "uncached", memo=cache.memoize, key="off")
            observed["disabled_sees"] = cache.stats()
            inside.set()
            proceed.wait(timeout=30)

    worker = threading.Thread(target=disabled_thread)
    worker.start()
    assert inside.wait(timeout=30)
    try:
        # This thread's caching stays on while the other is disabled.
        before = cache.stats().misses
        value = gate(None, lambda: "computed", memo=cache.memoize, key="k")
        assert value == "computed"
        assert cache.stats().misses == before + 1
        found, cached = cache.lookup("k")
        assert found and cached == "computed"
    finally:
        proceed.set()
        worker.join(timeout=30)
    # The arm's own thread neither read, wrote nor counted.
    assert observed["disabled_sees"].lookups == 0
    assert observed["disabled_sees"].size == 0
    assert not cache.lookup("off")[0]
