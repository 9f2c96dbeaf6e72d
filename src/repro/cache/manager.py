"""Unified registry of named, size-bounded LRU caches with counters.

Every memoized operation in the system goes through a named
:class:`LRUCache` registered with the process-wide :class:`CacheManager`
(``caches``).  Centralizing them buys three things the ad-hoc module-global
dictionaries it replaced could not provide:

* **bounded memory** — each cache evicts least-recently-used entries past
  its ``maxsize`` instead of growing without limit;
* **observability** — per-cache hit/miss/eviction counters, snapshot/delta
  support so the compile driver can report per-compile hit rates in the
  Table 1 phase tables;
* **control** — ``caches.reset()`` between test modules.

Whether a lookup happens at all is not decided here: the set engine's
gate (:func:`repro.isets.profile.gate`) bypasses every LRU on the
``CompilerOptions(caching="off")`` reference arm.  This package imports
nothing from ``isets``, so every layer can use it without cycles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Tuple

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one named cache."""

    name: str
    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class LRUCache:
    """A size-bounded memoization cache with hit/miss/eviction counters.

    Thread-safe: compiles are single-threaded today, but the ``threads``
    execution backend shares the process, so all mutation happens under a
    lock.  Values are treated as immutable by convention — callers must
    never mutate a cached result.
    """

    def __init__(self, name: str, maxsize: int = 4096):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def lookup(self, key: Hashable) -> Tuple[bool, object]:
        """``(found, value)``; counts a hit or a miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return False, None
            self._data.move_to_end(key)
            self.hits += 1
            return True, value

    def _insert(self, key: Hashable, value: object) -> None:
        """Store ``key`` and evict to fit; the caller holds the lock."""
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) ``key`` as the most recently used entry."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._insert(key, value)

    def memoize(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Return the cached value for ``key``, computing it on a miss.

        Two threads missing the same key concurrently both compute; the
        results must therefore be interchangeable (pure functions of the
        key).  For identity-canonicalization use :meth:`intern` instead.
        """
        found, value = self.lookup(key)
        if found:
            return value
        value = compute()
        self.put(key, value)
        return value

    def intern(self, key: Hashable, value: object) -> object:
        """Atomic get-or-put: the *first* value stored under ``key`` wins.

        Unlike :meth:`memoize`'s check-then-act, the lookup and insert
        happen under one lock acquisition, so concurrent threads racing
        to intern structurally equal objects all receive the same
        canonical instance — required for hash-consing, where callers
        rely on identity stability.
        """
        with self._lock:
            existing = self._data.get(key, _MISSING)
            if existing is not _MISSING:
                self._data.move_to_end(key)
                self.hits += 1
                return existing
            self.misses += 1
            self._insert(key, value)
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def reset(self) -> None:
        """Clear entries *and* counters."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                self.name,
                self.hits,
                self.misses,
                self.evictions,
                len(self._data),
                self.maxsize,
            )


class CacheManager:
    """Registry of named LRU caches."""

    def __init__(self):
        self._caches: Dict[str, LRUCache] = {}
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------------

    def register(self, name: str, maxsize: int = 4096) -> LRUCache:
        """Create (or return the existing) cache called ``name``.

        A name is one process-wide cache with one bound: re-registering it
        with a different ``maxsize`` raises instead of silently handing a
        second owner the first one's cache.
        """
        with self._lock:
            cache = self._caches.get(name)
            if cache is None:
                cache = LRUCache(name, maxsize)
                self._caches[name] = cache
            elif cache.maxsize != maxsize:
                raise ValueError(
                    f"cache {name!r} is already registered with maxsize "
                    f"{cache.maxsize}, not {maxsize}"
                )
            return cache

    def __getitem__(self, name: str) -> LRUCache:
        return self._caches[name]

    def __contains__(self, name: str) -> bool:
        return name in self._caches

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._caches))

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, CacheStats]:
        return {name: c.stats() for name, c in sorted(self._caches.items())}

    def counters(self) -> Dict[str, Tuple[int, int, int]]:
        """Raw ``{name: (hits, misses, evictions)}`` snapshot."""
        return {
            name: (c.hits, c.misses, c.evictions)
            for name, c in self._caches.items()
        }

    def delta(
        self, before: Dict[str, Tuple[int, int, int]]
    ) -> Dict[str, Dict[str, int]]:
        """Counter increments since a :meth:`counters` snapshot."""
        out: Dict[str, Dict[str, int]] = {}
        for name, cache in sorted(self._caches.items()):
            b_hits, b_misses, b_evict = before.get(name, (0, 0, 0))
            hits = cache.hits - b_hits
            misses = cache.misses - b_misses
            evictions = cache.evictions - b_evict
            if hits or misses or evictions:
                out[name] = {
                    "hits": hits,
                    "misses": misses,
                    "evictions": evictions,
                }
        return out

    # -- control -----------------------------------------------------------

    def clear(self) -> None:
        for cache in self._caches.values():
            cache.clear()

    def reset(self) -> None:
        """Clear all entries and counters (test isolation)."""
        for cache in self._caches.values():
            cache.reset()


#: The process-wide cache registry every memoized operation goes through.
caches = CacheManager()


def reset_caches() -> None:
    """Drop all memoized state and counters (used between test modules)."""
    caches.reset()
