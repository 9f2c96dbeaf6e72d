"""Advisory cross-process file locks: release on holder death, stale
recovery, timeout against a live holder.  Run under ``-W error`` in CI."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.cache.locks import FileLock, LockTimeout


def _hold_lock_forever(path):
    lock = FileLock(path, stale_after=3600.0)
    lock.acquire(timeout=5)
    os.kill(os.getpid(), signal.SIGSTOP)  # wedge while holding


def test_lock_released_when_holder_dies(tmp_path):
    """flock is kernel-owned: SIGKILLing the holder frees the lock."""
    path = tmp_path / ".lock"
    ctx = multiprocessing.get_context("fork")
    holder = ctx.Process(target=_hold_lock_forever, args=(str(path),))
    holder.start()
    try:
        deadline = time.monotonic() + 10
        lock = FileLock(path, stale_after=3600.0)
        while time.monotonic() < deadline:
            try:
                lock.acquire(timeout=0.05)
            except LockTimeout:
                break  # holder owns it now
            lock.release()
            time.sleep(0.02)
        else:
            pytest.fail("holder never took the lock")
        holder.kill()
        holder.join(timeout=10)
        # The kernel released the dead holder's flock; no stale wait.
        lock.acquire(timeout=2.0)
        lock.release()
    finally:
        if holder.is_alive():
            holder.kill()
            holder.join(timeout=10)


def test_stale_lock_is_broken_after_grace(tmp_path):
    """A wedged-but-alive holder is bypassed once the lock file ages out."""
    path = tmp_path / ".lock"
    ctx = multiprocessing.get_context("fork")
    holder = ctx.Process(target=_hold_lock_forever, args=(str(path),))
    holder.start()
    try:
        deadline = time.monotonic() + 10
        probe = FileLock(path, stale_after=3600.0)
        while time.monotonic() < deadline:
            try:
                probe.acquire(timeout=0.05)
            except LockTimeout:
                break
            probe.release()
            time.sleep(0.02)
        else:
            pytest.fail("holder never took the lock")
        # Make the holder look long-wedged, then steal.
        os.utime(path, (1.0, 1.0))
        waiter = FileLock(path, stale_after=0.5)
        waiter.acquire(timeout=0.5)
        waiter.release()
    finally:
        holder.kill()
        holder.join(timeout=10)


def test_lock_timeout_when_holder_is_live(tmp_path):
    path = tmp_path / ".lock"
    a = FileLock(path, stale_after=3600.0)
    b = FileLock(path, stale_after=3600.0)
    a.acquire(timeout=1)
    try:
        with pytest.raises(LockTimeout):
            b.acquire(timeout=0.3)
    finally:
        a.release()
    b.acquire(timeout=1)
    b.release()
