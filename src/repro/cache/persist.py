"""Persistent on-disk compile cache (warm-start compiles).

A compiled SPMD artifact (the whole :class:`~repro.core.driver.CompiledProgram`
— AST, data mapping, analyses, emitted node-program source) is stored under
a **fingerprint** of everything that determines it:

* the program source text (byte-exact);
* every semantic field of :class:`~repro.core.options.CompilerOptions`
  (``caching`` and ``cache_dir`` themselves are excluded — they select
  *how* to compile, not *what* is compiled, and the cached and uncached
  paths are required to produce byte-identical programs);
* the package version and the artifact format version.

Artifacts are pickles written atomically (tmp file + ``os.replace``) so a
concurrent reader never sees a half-written file; a corrupted, truncated,
or version-skewed artifact is treated as a miss and recompiled, never an
error.  Reads therefore take no lock at all.  *Writers* (and ``clear``)
additionally serialize on a per-directory advisory ``.lock``
(:class:`~repro.cache.locks.FileLock` — ``flock``, auto-released on
process death, stale holders broken after a grace period): after
acquiring it they re-check for an artifact another process may have
published in the meantime and skip the duplicate write, then sweep the
directory down to :attr:`CompileCache.CAPACITY` artifacts, oldest mtime
first (a load hit refreshes the mtime, so the sweep is LRU).  The
directory is the only bookkeeping: there is no index to corrupt.  The
CLI and the compile service read and write the same directory.  Like
any pickle store, the cache directory must be trusted — do not point
``--cache-dir`` at attacker-writable locations.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from dataclasses import fields
from pathlib import Path
from typing import Dict, Optional

from .locks import FileLock
from .manager import caches

#: Bump when the artifact layout changes incompatibly, and on every
#: re-pin of the emitted node programs (DESIGN §11).
FORMAT_VERSION = 5

_ARTIFACT_PREFIX = "cc-"
_ARTIFACT_SUFFIX = ".pkl"

#: Option fields that do not affect the compiled artifact.
_NON_SEMANTIC_OPTIONS = frozenset({"caching", "cache_dir", "profile_sets"})

#: Counters for the persistent layer (reported next to the memo caches).
_COUNTS = caches.register("persist.compile", maxsize=16)


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-dhpf``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return str(Path.home() / ".cache" / "repro-dhpf")


def options_fingerprint_fields(options) -> Dict[str, object]:
    """The semantic option fields, as a JSON-stable dict."""
    return {
        f.name: getattr(options, f.name)
        for f in fields(options)
        if f.name not in _NON_SEMANTIC_OPTIONS
    }


def compute_fingerprint(
    source: str, options, version: Optional[str] = None
) -> str:
    """Hex digest keying one (source, options, version) compilation."""
    if version is None:
        from .. import __version__ as version
    payload = json.dumps(
        {
            "format": FORMAT_VERSION,
            "source": source,
            "options": options_fingerprint_fields(options),
            "version": version,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CompileCache:
    """A bounded directory of fingerprint-keyed compiled artifacts.

    ``hits``, ``misses``, ``stores`` and ``evictions`` count this
    instance's own traffic (the service reports them in ``/stats``).
    """

    #: Name of the per-directory advisory writer lock.
    LOCK_NAME = ".lock"
    #: Most artifacts the directory keeps; each store evicts beyond it.
    CAPACITY = 2048

    def __init__(self, root: str):
        self.root = Path(root)
        # FileLock's defaults: a 10 s wait, a stuck holder broken at 30 s.
        self._lock = FileLock(self.root / self.LOCK_NAME)
        self._mutex = threading.Lock()
        self.hits = self.misses = self.stores = self.evictions = 0

    def _count(self, counter: str) -> None:
        with self._mutex:
            setattr(self, counter, getattr(self, counter) + 1)

    # -- paths -------------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{_ARTIFACT_PREFIX}{fingerprint[:40]}{_ARTIFACT_SUFFIX}"

    def _artifacts(self):
        if not self.root.is_dir():
            return []
        return sorted(
            p
            for p in self.root.iterdir()
            if p.name.startswith(_ARTIFACT_PREFIX)
            and p.name.endswith(_ARTIFACT_SUFFIX)
        )

    # -- load / store ------------------------------------------------------

    def load(self, fingerprint: str):
        """The cached :class:`CompiledProgram`, or ``None`` on any miss.

        Unreadable, truncated, or mismatched artifacts fall back to a cold
        compile; the stored fingerprint is re-checked so a short-prefix
        filename collision cannot serve the wrong program.
        """
        path = self.path_for(fingerprint)
        try:
            compiled = self._read(path, fingerprint)
        except FileNotFoundError:
            _COUNTS.misses += 1
            self._count("misses")
            return None
        except Exception:
            # Corrupt/truncated/stale artifact: drop it and recompile.
            _COUNTS.misses += 1
            self._count("misses")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _COUNTS.hits += 1
        self._count("hits")
        # Refresh recency so the eviction sweep sees this artifact as live.
        try:
            os.utime(path, None)
        except OSError:
            pass
        return compiled

    def store(self, fingerprint: str, compiled) -> Path:
        """Atomically write the artifact, then evict; returns its path.

        Serializes with concurrent writing *processes* on the directory's
        advisory lock and re-checks after acquiring it: if another writer
        published a valid artifact for this fingerprint while we waited,
        the duplicate write is skipped (the racing compiles are required
        to be byte-equivalent, so either copy serves).  Still under the
        lock, the directory is swept down to :attr:`CAPACITY`.  If the
        lock cannot be obtained even after stale-holder recovery, the
        write proceeds unlocked and the sweep waits for the next store —
        the tmp+rename protocol keeps that safe, it merely readmits the
        benign duplicate-write race.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(fingerprint)
        self._count("stores")
        try:
            with self._lock:
                if not self._valid_artifact(fingerprint):
                    self._write(fingerprint, compiled, path)
                self._evict()
        except TimeoutError:
            self._write(fingerprint, compiled, path)
        return path

    def _valid_artifact(self, fingerprint: str) -> bool:
        """Is a loadable artifact for ``fingerprint`` already on disk?

        Reread-after-lock: validates the payload (not just existence), so
        a corrupt leftover is still overwritten.  Does not touch the
        hit/miss counters — this is writer bookkeeping, not a lookup.
        """
        try:
            self._read(self.path_for(fingerprint), fingerprint)
        except Exception:
            return False
        return True

    @staticmethod
    def _read(path: Path, fingerprint: str):
        """Unpickle and validate one artifact file; raises on any defect."""
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        if not isinstance(payload, dict):
            raise ValueError("artifact payload is not a dict")
        if payload.get("format") != FORMAT_VERSION:
            raise ValueError("artifact format version mismatch")
        if payload.get("fingerprint") != fingerprint:
            raise ValueError("artifact fingerprint mismatch")
        return payload["compiled"]

    def _write(self, fingerprint: str, compiled, path: Path) -> Path:
        payload = {
            "format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "compiled": compiled,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=".tmp-", suffix=_ARTIFACT_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- maintenance -------------------------------------------------------

    def _evict(self) -> None:
        """Unlink oldest-mtime artifacts beyond :attr:`CAPACITY`; the
        caller holds the writer lock, so two sweeps never race."""
        artifacts = self._artifacts()
        if len(artifacts) <= self.CAPACITY:
            return
        aged = []
        for path in artifacts:
            try:
                aged.append((path.stat().st_mtime, path))
            except OSError:
                continue
        aged.sort()
        for _, path in aged[:len(aged) - self.CAPACITY]:
            try:
                path.unlink()
            except OSError:
                continue
            self._count("evictions")

    def stats(self) -> Dict[str, object]:
        """Entries and bytes on disk plus this instance's counters.

        A file another thread or process unlinks between the listing and
        its ``stat`` (an eviction, a ``clear``) is simply not counted.
        """
        sizes = []
        for path in self._artifacts():
            try:
                sizes.append(path.stat().st_size)
            except FileNotFoundError:
                continue
        with self._mutex:
            return {
                "dir": str(self.root),
                "entries": len(sizes),
                "bytes": sum(sizes),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
            }

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed.

        Takes the writer lock so a concurrent ``store`` is not interleaved
        with the sweep (its artifact either fully survives or is fully
        removed, never half-counted).
        """
        removed = 0
        try:
            lock = self._lock.acquire()
        except TimeoutError:
            lock = None
        try:
            for path in self._artifacts():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        finally:
            if lock is not None:
                lock.release()
        return removed
