"""Judge two sets of spine runs against the bounds in BENCHMARK.json.

    python3 benchmarks/spine/compare.py A.json B.json
    python3 benchmarks/spine/compare.py A.json

A and B are files written by ``run.py --out`` (several runs per
workload).  Per workload x end-to-end metric it prints both medians
with their quartile spread, B's worsening as a share of A, and ``ok`` /
``regression`` / ``unresolved`` (the run-to-run spread exceeds the
bound, so the runs cannot tell); per metric, the geometric mean over
workloads of B/A.  With one file it prints the spreads alone.  Exits 1
on any regression, 2 when a run was incorrect.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import geomean, spread, verdict, worsening  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per untraced run."""
    with open(path) as handle:
        document = json.load(handle)
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        result = run["result"]
        if not result or not result["correct"]:
            print(f"{path}: incorrect run of {run['workload']} "
                  f"(seed {run['seed']})", file=sys.stderr)
            raise SystemExit(2)
        per_metric = values.setdefault(run["workload"], {})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    base = load_runs(argv[0])
    new = load_runs(argv[1]) if len(argv) == 2 else None
    status = 0
    ratios: Dict[str, List[float]] = {}
    for workload in sorted(base):
        print(f"== {workload}")
        for entry in benchmark["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a = base[workload][name]
            line = (f"  {name:22s} {statistics.median(a):14.6g} "
                    f"{entry['unit']:6s} n={len(a)} "
                    f"spread {spread(a):6.1%} bound {bound:.0%}")
            if new is None:
                flag = "" if spread(a) <= bound / 3 else (
                    "  > bound/3" if spread(a) <= bound else "  > BOUND"
                )
                print(line + flag)
                continue
            b = new[workload][name]
            result = verdict(a, b, entry["better"], bound)
            worse = worsening(statistics.median(a), statistics.median(b),
                              entry["better"])
            ratios.setdefault(name, []).append(
                statistics.median(b) / statistics.median(a)
            )
            print(f"{line} | {statistics.median(b):14.6g} spread "
                  f"{spread(b):6.1%} worse by {worse:+7.1%}  {result}")
            if result == "regression":
                status = 1
    if new is not None:
        print("== geometric mean over workloads of B/A (base: A's median)")
        for name, values in ratios.items():
            print(f"  {name:22s} {geomean(values):8.4f}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
