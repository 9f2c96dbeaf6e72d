"""Set-algebra memoization and persistent compilation caching.

The paper's premise (its Table 1) is that integer-set manipulation stays a
bounded fraction of compile time; this subsystem makes repeated set
manipulation *cheap* instead of merely bounded.  Two layers:

* :mod:`repro.cache.manager` — a unified registry of named, size-bounded
  LRU caches with hit/miss/eviction counters, used to memoize the hot pure
  ``isets`` operations (conjunct emptiness, redundancy removal, projection,
  binary set algebra) and reported per compile in the phase tables;
* :mod:`repro.cache.persist` — a persistent on-disk compile cache keyed by
  a fingerprint of (source text, :class:`CompilerOptions`, package
  version), storing the whole compiled SPMD artifact for warm-start
  compiles (``python -m repro compile/run --cache-dir ...``).

``CompilerOptions(caching="off")`` bypasses every layer, keeping an
uncached A/B path that must produce byte-identical emitted programs.
"""

from .manager import CacheManager, CacheStats, LRUCache, caches, reset_caches
from .persist import (
    CompileCache,
    compute_fingerprint,
    default_cache_dir,
)

__all__ = [
    "CacheManager",
    "CacheStats",
    "CompileCache",
    "LRUCache",
    "caches",
    "compute_fingerprint",
    "default_cache_dir",
    "reset_caches",
]
