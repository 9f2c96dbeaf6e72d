"""Advisory cross-process file locks with stale-holder recovery.

The persistent compile cache is a plain directory that several
*processes* may read and write concurrently (parallel CI jobs, a compile
server next to ad-hoc CLI invocations).
Artifact files themselves are always safe — they are written with
tmp-file + ``os.replace`` so a reader never observes a torn file — but
the *bookkeeping* around them (eviction scans, "is it already there?"
write dedup, clear) needs mutual exclusion to avoid doing the same work
twice or double-counting evictions.

:class:`FileLock` provides that exclusion with ``fcntl.flock`` on a
dedicated ``.lock`` file:

* the kernel releases ``flock`` automatically when the holding process
  exits (even via SIGKILL), so a crashed writer can never wedge the
  cache;
* a holder that is alive but *stuck* is handled by stale recovery: when
  acquisition times out and the lock file's mtime is older than
  ``stale_after`` seconds, the waiter breaks the lock by unlinking the
  file and locking a fresh inode.  The old holder keeps its ``flock`` on
  the orphaned inode; both then proceed.  This deliberately trades
  strict exclusion for liveness — safe here because artifact writes are
  atomic regardless, so the worst outcome of a broken lock is duplicated
  work, never corruption.  Holders re-touch the file's mtime on acquire
  so an active lock is never judged stale.

On platforms without ``fcntl`` the lock degrades to in-process-only
exclusion (a ``threading.Lock``), which keeps single-process semantics
intact.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-posix fallback
    fcntl = None  # type: ignore[assignment]


class LockTimeout(TimeoutError):
    """Could not acquire a :class:`FileLock` within the deadline."""


class FileLock:
    """An advisory inter-process lock backed by ``flock`` on a lock file.

    Also takes an internal :class:`threading.Lock`, so one instance may
    be shared by many threads of one process: thread exclusion comes from
    the mutex, process exclusion from ``flock``.  Re-entrant use by the
    same thread is a programming error, not supported.
    """

    def __init__(
        self,
        path: os.PathLike,
        stale_after: float = 30.0,
        poll_interval: float = 0.01,
        timeout: float = 10.0,
    ):
        self.path = Path(path)
        self.stale_after = stale_after
        self.poll_interval = poll_interval
        self.timeout = timeout
        self._thread_lock = threading.Lock()
        self._fd: Optional[int] = None

    # -- acquisition -------------------------------------------------------

    def _try_flock(self) -> bool:
        """One non-blocking attempt; (re)opens the file each try so a
        broken (unlinked) lock file is re-created with a fresh inode."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        # Got it — but only the current inode counts.  If another waiter
        # broke the lock between our open and flock, the path now names a
        # different file and our lock guards an orphan; retry.
        try:
            if not self._still_current(fd):
                fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
                return False
        except OSError:
            os.close(fd)
            return False
        os.utime(self.path, None)  # mark the holder as live
        self._fd = fd
        return True

    def _still_current(self, fd: int) -> bool:
        try:
            path_stat = os.stat(self.path)
        except FileNotFoundError:
            return False
        fd_stat = os.fstat(fd)
        return (path_stat.st_dev, path_stat.st_ino) == (
            fd_stat.st_dev,
            fd_stat.st_ino,
        )

    def _break_if_stale(self) -> bool:
        """Unlink the lock file if its holder looks dead/wedged."""
        try:
            age = time.time() - self.path.stat().st_mtime
        except FileNotFoundError:
            return True  # already broken by someone else
        if age < self.stale_after:
            return False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        return True

    def acquire(self, timeout: Optional[float] = None) -> "FileLock":
        timeout = self.timeout if timeout is None else timeout
        self._thread_lock.acquire()
        try:
            if fcntl is None:  # thread-level exclusion only
                return self
            deadline = time.monotonic() + timeout
            broke_stale = False
            while True:
                if self._try_flock():
                    return self
                if time.monotonic() >= deadline:
                    if not broke_stale and self._break_if_stale():
                        # One bounded grace period to contend for the
                        # fresh inode with the other waiters.
                        broke_stale = True
                        deadline = time.monotonic() + min(timeout, 1.0)
                        continue
                    raise LockTimeout(
                        f"could not lock {self.path} within {timeout:.1f}s "
                        f"(holder alive and younger than "
                        f"{self.stale_after:.0f}s)"
                    )
                time.sleep(self.poll_interval)
        except BaseException:
            self._thread_lock.release()
            raise

    def release(self) -> None:
        try:
            if self._fd is not None:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
                finally:
                    os.close(self._fd)
                self._fd = None
        finally:
            self._thread_lock.release()

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()
