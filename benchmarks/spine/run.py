"""Spine benchmark driver.

    python3 benchmarks/spine/run.py --workload NAME --seed S \
        --seconds T --trace 0|1

runs one workload in this process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``:
every end-to-end metric of BENCHMARK.json with ``--trace 0``, every
per-layer metric with ``--trace 1`` (which also writes a Chrome trace
under ``out/``).  It exits non-zero if any output check failed.

Without ``--workload`` it runs every workload ``--runs`` times, each in
a fresh subprocess, and writes the stamped results to ``--out`` for
``compare.py``.  ``--regen-expected`` rewrites expected.json from the
serial interpreter; ``--smoke`` runs one lap of everything.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"spine: the program under test is not at {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_workload(args) -> int:
    import numpy  # noqa: F401 - part of the import cost users pay
    import checks
    import metrics
    from pipeline import Spine
    from plans import PLANS, PROGRAMS, all_cells

    import_s = time.perf_counter() - _START
    if args.regen_expected:
        checks.regen_expected(all_cells(), PROGRAMS)
        return 0

    benchmark = load_benchmark()
    if args.workload not in PLANS:
        sys.exit(f"spine: no workload {args.workload!r}; "
                 f"BENCHMARK.json names {sorted(PLANS)}")
    # A smoke run is a self-test, not a measurement: it traces, and
    # reports both families of metrics from its one or two laps.
    trace = bool(args.trace) or args.smoke
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spine = Spine(PLANS[args.workload], args.seed, args.seconds, trace,
                  workdir, smoke=args.smoke)
    try:
        spine.run()
    except Exception as exc:  # report, never hide: the run is incorrect
        spine.rec.fail(f"{args.workload} aborted: {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_helper_processes()

    rec = spine.rec
    wanted, values = [], {}
    if args.smoke or not args.trace:
        wanted += benchmark["end_to_end"]
        if not rec.failures:
            values.update(metrics.end_to_end(spine, import_s))
            for entry in benchmark["end_to_end"]:
                if not values.get(entry["name"]):
                    rec.fail(f"end-to-end metric {entry['name']} is "
                             "missing or zero")
    if trace:
        wanted += benchmark["per_layer"]
        if not rec.failures:
            values.update(metrics.per_layer(spine))
            rec.write_chrome_trace(OUT / f"trace-{args.workload}.json")
    unknown = set(values) - {entry["name"] for entry in wanted}
    if unknown:
        rec.fail(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    result = {
        "correct": not rec.failures,
        "attempted": max(rec.attempted, 1),
        "failed": len(rec.failures),
        "metrics": {
            entry["name"]: {"value": values.get(entry["name"], 0.0),
                            "unit": entry["unit"]}
            for entry in wanted
        },
    }
    report(spine, import_s, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(spine, import_s: float, result: dict) -> None:
    """The human-readable side, on standard error: where the time
    went, every timing with its n, median and quartiles, every metric
    by name with its unit."""
    from stats import summarize

    def say(text):
        print(text, file=sys.stderr)

    say(f"[spine] import {import_s:.2f} s, prime "
        f"{[round(t, 2) for t in spine.prime_s]} s, warm-ups "
        f"{spine.warmup_s:.2f} s")
    for stage, (laps, wall) in spine.stage_laps.items():
        say(f"[spine] {stage}: {laps} laps in {wall:.1f} s")
    for kind, samples in (("plain", spine.rec.plain),
                          ("traced", spine.rec.traced)):
        for key, values in sorted(samples.items()):
            if values:
                s = summarize(values)
                say(f"[{kind}] {'/'.join(map(str, key)):58s} "
                    f"n={s['n']:<4d} median {s['median']:.6g} "
                    f"q1 {s['q1']:.6g} q3 {s['q3']:.6g}")
    for name, metric in result["metrics"].items():
        say(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")


def stop_helper_processes() -> None:
    """The pool's forkserver and the mp backend's resource tracker
    outlive the work that started them; stop them and wait."""
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver,
                   resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def commit_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_all(args) -> int:
    """Every workload, one fresh subprocess per run, into ``--out``."""
    import numpy

    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    start = time.perf_counter()
    runs = []
    status = 0
    for repeat in range(args.runs):
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed + repeat),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            began = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if done.returncode or not result:
                status = 1
            runs.append({
                "workload": name, "seed": args.seed + repeat,
                "trace": args.trace, "exit": done.returncode,
                "wall_s": time.perf_counter() - began, "result": result,
            })
    document = {
        "meta": {
            "commit": commit_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": args.seed,
            "seconds": args.seconds,
            "total_wall_s": time.perf_counter() - start,
        },
        "runs": runs,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", default=str(OUT / "spine.json"))
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.workload or args.regen_expected:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
