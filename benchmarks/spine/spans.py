"""Benchmark-side measurement: timing samples, spans and failure counts.

Everything is recorded from outside the program, around calls into its
public functions.  A *sample* is the wall time of one operation, filed
under a key; samples of traced and untraced laps are kept apart so that
end-to-end metrics only ever come from untraced laps.  A *span* (traced
laps only) is ``name, start, end, parent, op``: spans of one operation
share its ``op`` id, and spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Recorder:
    def __init__(self):
        #: laps run with spans and ``profile_sets`` on write to ``traced``.
        self.tracing = False
        self.plain: Dict[tuple, List[float]] = defaultdict(list)
        self.traced: Dict[tuple, List[float]] = defaultdict(list)
        self.spans: List[dict] = []
        self.attempted = 0
        self.failures: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = time.perf_counter()

    # -- samples -----------------------------------------------------------

    @property
    def samples(self) -> Dict[tuple, List[float]]:
        return self.traced if self.tracing else self.plain

    def add(self, key: tuple, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    # -- spans -------------------------------------------------------------

    @contextmanager
    def measure(self, name: str, key: Optional[tuple] = None,
                op: bool = False) -> Iterator[dict]:
        """Time a block: file its wall time under ``key`` (when given)
        and, in a traced lap, record a span under the enclosing one.
        ``op=True`` starts a new operation and counts it as attempted.
        The yielded dict gets ``wall`` on exit.
        """
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else 0,
            "thread": threading.get_ident(),
        }
        span["op"] = span["id"] if op or not parent else parent["op"]
        if op:
            with self._lock:
                self.attempted += 1
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            span["wall"] = span["end"] - span["start"]
            stack.pop()
            if key is not None:
                self.add(key, span["wall"])
            if self.tracing:
                with self._lock:
                    self.spans.append(span)

    def child_spans(self, parent: dict, parts: List[Tuple[str, float]]
                    ) -> None:
        """Lay reported durations (e.g. ``PhaseTimer`` totals) end to
        end inside ``parent`` as child spans; the program reports how
        long each part took, not when."""
        if not self.tracing:
            return
        cursor = parent["start"]
        with self._lock:
            for name, seconds in parts:
                self.spans.append({
                    "id": next(self._ids), "name": name,
                    "parent": parent["id"], "op": parent["op"],
                    "thread": parent["thread"],
                    "start": cursor, "end": cursor + seconds,
                })
                cursor += seconds

    # -- failures ----------------------------------------------------------

    def fail(self, what: str) -> None:
        with self._lock:
            self.failures.append(what)
        print(f"[spine] FAILED: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        """One correctness check: attempted, and failed unless ``ok``."""
        with self._lock:
            self.attempted += 1
        if not ok:
            self.fail(what)

    # -- output ------------------------------------------------------------

    def write_chrome_trace(self, path) -> None:
        threads = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span["thread"], len(threads))
            events.append({
                "name": span["name"], "ph": "X", "pid": 0, "tid": tid,
                "ts": (span["start"] - self.origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"id": span["id"], "parent": span["parent"],
                         "op": span["op"]},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)

