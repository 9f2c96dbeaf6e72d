"""Shared helpers for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper: it prints the
reproduced rows/series (prefixed ``[repro]``) and asserts the qualitative
*shape* the paper reports — who wins, roughly by how much, where behaviour
changes.  Absolute numbers differ: the substrate is a simulated machine,
not the authors' IBM SP-2.
"""

import sys

import pytest

from repro import CostModel, compile_program, run_compiled


def emit(line: str = "") -> None:
    """Print a reproduction row (shown with -s; captured otherwise)."""
    print(f"[repro] {line}", file=sys.stderr)


def speedup_series(source, params, proc_counts, options=None,
                   cost_model=None):
    """Compile once, run at each processor count, return speedup dict.

    The serial baseline is the total statement work of the run under the
    cost model's FLOP rate (equivalent to a 1-processor execution without
    any communication or replication overhead).
    """
    compiled = compile_program(source, options)
    model = cost_model or CostModel()
    times = {}
    serial = None
    stats = {}
    for p in proc_counts:
        outcome = run_compiled(
            compiled, params=params, nprocs=p, cost_model=model,
            validate=False,
        )
        times[p] = outcome.predicted_time
        stats[p] = outcome.stats
        serial = outcome.serial_time if serial is None else min(
            serial, outcome.serial_time
        )
    speedups = {p: serial / times[p] for p in proc_counts}
    return compiled, speedups, times, stats


@pytest.fixture
def repro_print():
    return emit
