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
published in the meantime and skip the duplicate write, which keeps
maintenance bookkeeping (entry counts, eviction decisions in the sharded
service store built on top of this class) from racing between
processes.  Like any pickle store, the cache directory must be trusted —
do not point ``--cache-dir`` at attacker-writable locations.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Dict, Optional

from .locks import FileLock
from .manager import caches

#: Bump when the artifact layout changes incompatibly, and on every
#: re-pin of the emitted node programs (DESIGN §11).
FORMAT_VERSION = 2

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
    """A directory of fingerprint-keyed compiled artifacts."""

    #: Name of the per-directory advisory writer lock.
    LOCK_NAME = ".lock"

    def __init__(self, root: str, lock_timeout: float = 10.0,
                 lock_stale_after: float = 30.0):
        self.root = Path(root)
        self.lock_timeout = lock_timeout
        self._lock = FileLock(
            self.root / self.LOCK_NAME,
            stale_after=lock_stale_after,
            timeout=lock_timeout,
        )

    @property
    def lock(self) -> FileLock:
        """The directory's advisory writer lock.  Callers doing their own
        maintenance on the directory (e.g. the service store's LRU
        eviction sweep) serialize on this same lock; it is *not*
        re-entrant, so never wrap a call to :meth:`store`/:meth:`clear`
        in it."""
        return self._lock

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
            return None
        except Exception:
            # Corrupt/truncated/stale artifact: drop it and recompile.
            _COUNTS.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _COUNTS.hits += 1
        return compiled

    def store(self, fingerprint: str, compiled) -> Path:
        """Atomically write the artifact; returns its path.

        Serializes with concurrent writing *processes* on the directory's
        advisory lock and re-checks after acquiring it: if another writer
        published a valid artifact for this fingerprint while we waited,
        the duplicate write is skipped (the racing compiles are required
        to be byte-equivalent, so either copy serves).  If the lock
        cannot be obtained even after stale-holder recovery, the write
        proceeds unlocked — the tmp+rename protocol keeps that safe, it
        merely readmits the benign duplicate-write race.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(fingerprint)
        try:
            with self._lock:
                if self._valid_artifact(fingerprint):
                    return path
                return self._write(fingerprint, compiled, path)
        except TimeoutError:
            return self._write(fingerprint, compiled, path)

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

    def stats(self) -> Dict[str, object]:
        artifacts = self._artifacts()
        return {
            "dir": str(self.root),
            "entries": len(artifacts),
            "bytes": sum(p.stat().st_size for p in artifacts),
        }

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed.

        Takes the writer lock so a concurrent ``store`` is not interleaved
        with the sweep (its artifact either fully survives or is fully
        removed, never half-counted).
        """
        removed = 0
        try:
            lock = self._lock.acquire(timeout=self.lock_timeout)
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
