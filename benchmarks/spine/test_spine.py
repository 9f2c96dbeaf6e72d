"""Self-tests of the spine benchmark (not part of tier-1):

    PYTHONPATH=src python3 -m pytest benchmarks/spine -q

Unit tests for the percentile rule, the bound verdict and span
self-time arithmetic, and a ``--smoke`` run of every workload (one lap
per stage, all four at once) that must emit every metric BENCHMARK.json
names, with its unit, and fail nothing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, pct", [
    (5, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    chosen, value = stats.tail_percentile(list(range(1, n + 1)))
    assert chosen == pct
    assert sum(1 for v in range(1, n + 1) if v > value) >= min(10, n // 2)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 90) == 5.0
    assert stats.percentile(values, 1) == 1.0


def test_summary_carries_count_median_and_quartiles():
    summary = stats.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary == {"n": 5, "median": 3.0, "q1": 1.5, "q3": 4.5}
    assert stats.summarize([7.0])["q1"] == 7.0


# -- bounds -------------------------------------------------------------------

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def scaled(values, factor):
    return [v * factor for v in values]


def test_within_bound_is_ok_and_beyond_is_regression():
    assert stats.verdict(STEADY, scaled(STEADY, 1.05), "lower", 0.10) == "ok"
    assert stats.verdict(
        STEADY, scaled(STEADY, 1.15), "lower", 0.10
    ) == "regression"
    assert stats.verdict(STEADY, scaled(STEADY, 0.5), "lower", 0.10) == "ok"


def test_direction_higher_is_better():
    assert stats.verdict(
        STEADY, scaled(STEADY, 0.85), "higher", 0.10
    ) == "regression"
    assert stats.verdict(
        STEADY, scaled(STEADY, 1.5), "higher", 0.10
    ) == "ok"
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)


def test_spread_wider_than_bound_is_unresolved_unless_separated():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert stats.spread(noisy) > 0.10
    assert stats.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    assert stats.verdict(STEADY, noisy, "lower", 0.10) == "unresolved"
    # every new run better than every base run: the noise cannot hide it
    assert stats.verdict(noisy, scaled(noisy, 0.5), "lower", 0.10) == "ok"


# -- spans --------------------------------------------------------------------

def span(id, parent, start, end):
    return {"id": id, "parent": parent, "start": start, "end": end}


def test_self_time_is_duration_minus_child_cover():
    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),    # overlaps span 2: covered once
        span(4, 1, 8.0, 12.0),   # clipped to the parent's end
        span(5, 2, 1.0, 2.0),
    ]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    # self times of a tree add up to the root's duration when children
    # do not overlap
    tree = [span(1, 0, 0.0, 4.0), span(2, 1, 0.0, 1.5),
            span(3, 1, 1.5, 3.0)]
    assert sum(stats.self_times(tree).values()) == pytest.approx(4.0)


def test_recorder_links_spans_to_their_operation():
    from spans import Recorder

    rec = Recorder()
    rec.tracing = True
    with rec.measure("op", ("op",), op=True) as root:
        with rec.measure("inner"):
            pass
        rec.child_spans(root, [("a", 0.25), ("b", 0.5)])
    by_name = {s["name"]: s for s in rec.spans}
    assert rec.attempted == 1
    assert {s["op"] for s in rec.spans} == {root["id"]}
    assert by_name["inner"]["parent"] == root["id"]
    assert by_name["b"]["start"] == pytest.approx(root["start"] + 0.25)
    assert rec.traced[("op",)] and not rec.plain
    rec.tracing = False
    with rec.measure("op", ("op",), op=True):
        pass
    assert len(rec.plain[("op",)]) == 1 and len(rec.spans) == 4


# -- smoke --------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_results():
    """All four workloads at once: nothing here asserts on a timing."""
    running = {
        workload["name"]: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload",
             workload["name"], "--seed", "7", "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for workload in BENCHMARK["workloads"]
    }
    results = {}
    for name, process in running.items():
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err[-2000:]
        results[name] = json.loads(out.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCHMARK["workloads"]]
)
def test_smoke_emits_every_metric_and_fails_nothing(smoke_results,
                                                    workload):
    result = smoke_results[workload]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = {
        entry["name"]: entry["unit"]
        for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    emitted = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert emitted == named
    assert result["metrics"]["fail_share"]["value"] == 0
    for entry in BENCHMARK["end_to_end"]:
        assert result["metrics"][entry["name"]]["value"] > 0, entry["name"]
