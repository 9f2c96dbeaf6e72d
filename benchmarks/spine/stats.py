"""Arithmetic of the spine benchmark: summaries, the percentile rule,
span self time and the bound verdict.  Pure functions, no I/O."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: percentiles a latency may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """What every timing carries: sample count, median and quartiles."""
    q1, _, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def typical(values: Sequence[float]) -> float:
    """The value a timing is reported at: the lower quartile of its
    laps (nearest rank, so the fastest of up to four).

    On a shared host noise only ever adds time, in bursts that can cover
    half the laps of a stage; the lower quartile stays on the laps the
    host left alone where the median does not.
    """
    return sorted(values)[(len(values) - 1) // 4]


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(pct * len(ordered) / 100.0 - 1e-9)
    return ordered[min(len(ordered), max(rank, 1)) - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """(pct, value) at the highest percentile with >= 10 samples beyond it.

    Below 20 samples no percentile has ten samples beyond it and the
    median is returned; the caller reports the sample count beside it.
    """
    chosen = PERCENTILES[0]
    for pct in PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            chosen = pct
    return chosen, percentile(values, chosen)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Per span id: its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children (ranks running in parallel) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        lo = max(span["start"], parent["start"])
        hi = min(span["end"], parent["end"])
        if hi > lo:
            children.setdefault(parent["id"], []).append((lo, hi))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], []))
        for span in spans
    }


def worsening(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    if not base:
        return 0.0
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """``ok`` / ``regression`` / ``unresolved`` for one metric on one
    workload, from the runs of both sides.

    Unresolved when either side's run-to-run spread exceeds the bound,
    unless every new run reads better than every base run.
    """
    if max(spread(base), spread(new)) > bound:
        if better == "lower":
            separated = max(new) < min(base)
        else:
            separated = min(new) > max(base)
        return "ok" if separated else "unresolved"
    worse = worsening(
        statistics.median(base), statistics.median(new), better
    )
    return "regression" if worse > bound else "ok"
