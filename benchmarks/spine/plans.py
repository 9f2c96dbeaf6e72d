"""Inputs of the spine benchmark: programs, run cells and the four plans.

Every workload runs the same pipeline — cold compile, reuse (persistent
cache and hot memo caches), SPMD run, compile service, validation — so
every metric exists on every workload.  A plan says which programs and
how much of the measuring window each stage gets: the stage a workload
is named after gets the large program set and most of the window, the
other stages run a small control set on which that workload's changes
are predicted flat.  README.md records why each program is here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.programs import sources

BACKENDS = ("threads", "mp", "inproc-seq", "taskgraph")


@dataclass(frozen=True)
class Program:
    source: str
    #: parameters of the validated check-size run (every element is
    #: compared with the serial interpreter).
    check: Dict[str, int]
    check_nprocs: int = 4


#: ``sp_like`` is the 2-routine x 2-nest variant: the full 6 x 5 program
#: compiles in 6 s, which leaves no room for repeated laps in a 22 s
#: window; the reduced one keeps its regime (check_contiguous > 50 %).
#: ``widehalo`` is only ever run with m == n (see README: m != n
#: miscompiles) and checked on 2 ranks, where its launch spec is cheap.
PROGRAMS: Dict[str, Program] = {
    "gauss": Program(sources.gauss(), {"n": 24}),
    "erlebacher": Program(
        sources.erlebacher(), {"n": 8, "nz": 16, "niter": 2}
    ),
    "tomcatv": Program(sources.tomcatv(), {"n": 24, "niter": 2}),
    "redblack": Program(sources.redblack(), {"n": 48, "niter": 2}),
    "jacobi": Program(sources.jacobi(), {"n": 24, "niter": 2}),
    "widehalo": Program(
        sources.widehalo(), {"n": 24, "m": 24, "niter": 2}, check_nprocs=2
    ),
    "sp_like": Program(
        sources.sp_like(routines=2, nests_per_routine=2),
        {"n": 8, "niter": 1},
    ),
}

SUITE = tuple(PROGRAMS)


def stencil_source(rng: random.Random) -> str:
    """A 1-D block stencil with seeded three-digit coefficients: a fresh
    fingerprint per draw, the same compile work and code size each time."""
    c0, c1, c2 = (f"0.{rng.randrange(101, 999)}" for _ in range(3))
    return f"""
program stencil
  parameter n, niter
  real a(n), b(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    a(i) = i * {c0}
    b(i) = 0.0
  end do
  do iter = 1, niter
    do i = 2, n - 1
      b(i) = {c1} * a(i) + {c2} * (a(i-1) + a(i+1))
    end do
    do i = 2, n - 1
      a(i) = b(i)
    end do
  end do
end
"""


STENCIL_CHECK = {"n": 40, "niter": 2}


@dataclass(frozen=True)
class Cell:
    """One timed SPMD run: a program at a size on some backends."""

    program: str
    params: Tuple[Tuple[str, int], ...]
    nprocs: int
    backends: Tuple[str, ...]
    #: simulated per-message link latency (threads and taskgraph only).
    comm_latency_s: float = 0.0

    @property
    def key(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.program}[{params}]x{self.nprocs}"


def cell(program, nprocs, backends, comm_latency_s=0.0, **params) -> Cell:
    return Cell(program, tuple(sorted(params.items())), nprocs,
                tuple(backends), comm_latency_s)


@dataclass(frozen=True)
class ServedMix:
    """Closed loop: ``clients`` keep-alive clients, each sending
    ``per_client`` requests a round; ``cold`` requests of the round, all
    from one client, are fresh fingerprints."""

    per_client: int
    cold: int
    clients: int = 2
    # traced runs only (they feed per-layer metrics):
    fresh: int = 20   # hot requests, a new connection each
    burst: int = 2    # fingerprints all clients request at once
    runs: int = 2     # /run requests (gauss n=32, 2 ranks)
    pooled: int = 2   # cold requests through a workers=1 pool


@dataclass(frozen=True)
class Plan:
    name: str
    why: str
    #: compiled from cold caches every lap.
    cold: Tuple[str, ...]
    #: the part of ``cold`` that is also recompiled hot and warm-loaded.
    reuse: Tuple[str, ...]
    cells: Tuple[Cell, ...]
    served: ServedMix
    #: share of the measuring window per stage.
    shares: Dict[str, float] = field(default_factory=dict)
    #: programs compiled with caching="off" in traced laps.
    nocache: Tuple[str, ...] = ("gauss", "tomcatv")
    warm_loads: int = 20


SMALL = ("gauss", "erlebacher", "tomcatv")
REUSE_SUITE = SMALL + ("jacobi", "sp_like")
CONTROL_CELLS = (cell("gauss", 4, BACKENDS, n=48),)
CONTROL_MIX = ServedMix(per_client=10, cold=4)

PLANS: Dict[str, Plan] = {
    plan.name: plan
    for plan in (
        Plan(
            "cold-compile",
            "the interactive user's cost and the paper's Table 1: the "
            "whole suite compiled from cold caches, set engine and "
            "code generation doing all the work",
            cold=SUITE, reuse=SMALL, cells=CONTROL_CELLS,
            served=CONTROL_MIX,
            shares={"compile": 0.60, "run": 0.10, "served": 0.30},
        ),
        Plan(
            "reuse-compile",
            "the same compile and cache layers read instead of written: "
            "warm loads from a persistent cache and recompiles on hot "
            "memo caches, where more memoization costs",
            cold=REUSE_SUITE, reuse=REUSE_SUITE,
            cells=CONTROL_CELLS, served=CONTROL_MIX,
            shares={"compile": 0.62, "run": 0.08, "served": 0.28},
        ),
        Plan(
            "spmd-run",
            "the generated code running: compute-, message-, "
            "collective- and launch-dominated cells on every backend; "
            "a compile-side change must leave it flat",
            cold=("gauss", "tomcatv"), reuse=("gauss", "tomcatv"),
            cells=(
                cell("jacobi", 4, ("threads", "mp", "inproc-seq"),
                     n=256, niter=8),
                cell("gauss", 4, BACKENDS, n=96),
                cell("tomcatv", 4, ("threads", "mp"), n=128, niter=4),
                cell("widehalo", 2, ("threads", "taskgraph"),
                     comm_latency_s=0.01, n=128, m=128, niter=4),
            ),
            served=CONTROL_MIX,
            shares={"compile": 0.08, "run": 0.60, "served": 0.30},
        ),
        Plan(
            "served-mix",
            "the only workload with the service on the blocking path: "
            "keep-alive clients in a closed loop, 90 % hot and 10 % "
            "cold requests, where the keep-alive stall lives",
            cold=SMALL, reuse=("gauss", "tomcatv"), cells=CONTROL_CELLS,
            served=ServedMix(per_client=20, cold=4, fresh=60, burst=6,
                             runs=8, pooled=6),
            shares={"compile": 0.15, "run": 0.10, "served": 0.65},
        ),
    )
}

#: programs primed hot on the server in set-up, besides two stencils.
HOT_SET = ("gauss", "erlebacher")


def all_cells() -> List[Cell]:
    """Every distinct timed cell (what expected.json must cover)."""
    seen: Dict[str, Cell] = {}
    for plan in PLANS.values():
        for c in plan.cells:
            seen.setdefault(c.key, c)
    return list(seen.values())
