"""The execution-backend interface and registry.

An :class:`ExecutionBackend` turns a compiled SPMD node program plus
per-rank startup bindings into per-rank results, traces, and wall-clock
timings.  The harness (:mod:`repro.runtime.harness`) is backend-agnostic:
it prepares a :class:`LaunchSpec`, hands it to whichever backend was
selected, and validates/replays the returned :class:`RankResult` list the
same way regardless of how the ranks actually ran.

Registered backends:

``threads``
    The original simulated machine — one daemon thread per rank inside
    this process.  Cheap to launch; real concurrency under the GIL.
``mp``
    One OS process per rank (:mod:`repro.runtime.backends.mp`): a true
    shared-nothing SPMD run with payloads shipped through
    ``multiprocessing.shared_memory`` ring buffers.  Wall-clock numbers
    from this backend reflect real data movement.
``inproc-seq``
    A deterministic sequential scheduler
    (:mod:`repro.runtime.backends.inproc_seq`): ranks execute one at a
    time with rank-cyclic handoff at blocking points.  The golden
    reference for debugging — identical schedules on every run.

Everything in a :class:`LaunchSpec` is picklable so the same spec can be
shipped to worker processes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...cache.manager import LRUCache
from ..machine import RankResult
from ..options import RuntimeOptions

# Module code objects of generated node programs, one per distinct
# source.  Code objects are immutable, so every launch (and every rank)
# execs the shared object into a namespace of its own; only the
# ``compile()`` — 150 ms for a 550 kB program — is paid once.  Not a
# memo cache of the compiler (the memo-off reference arm and ``reset_caches``
# leave it alone): it holds nothing but what ``compile()`` would return.
_NODE_CODE = LRUCache("runtime.node_code", maxsize=16)


def node_code(source: str) -> CodeType:
    """The compiled module of a generated node program (shared, cached)."""
    return _NODE_CODE.memoize(
        source, lambda: compile(source, "<spmd>", "exec")
    )


@dataclass
class RankBindings:
    """Everything one rank needs at startup, fully evaluated and picklable.

    The harness evaluates the symbolic startup bindings (grid coordinates,
    block sizes, VP rebindings) and array extents in the parent so workers
    never need the program AST or the data-mapping model.
    """

    rank: int
    env: Dict[str, int]
    array_shapes: Dict[str, Tuple[int, ...]]
    array_lbounds: Dict[str, Tuple[int, ...]]
    scalars: List[str]
    inplace: Dict[str, bool]


@dataclass
class LaunchSpec:
    """One SPMD launch: the node program and all per-rank bindings."""

    nprocs: int
    source: str  # generated node-program module source
    bindings: List[RankBindings]
    #: fallback integer sets backing ``rt.member`` guards (picklable).
    fallback_sets: List[object] = field(default_factory=list)
    options: RuntimeOptions = field(default_factory=RuntimeOptions)
    #: arrays the integer-set dependence analysis proved free of
    #: cross-statement same-element accesses (see
    #: :func:`repro.runtime.harness.independent_arrays`).  The taskgraph
    #: planner may drop compute-compute ordering edges carried only by
    #: these names; other backends ignore the field.
    dep_hints: Tuple[str, ...] = ()


@dataclass
class RankTiming:
    """Measured (not modeled) times for one rank."""

    rank: int
    wall_s: float  # total wall-clock inside node_main
    comm_wall_s: float = 0.0  # wall-clock inside send/recv/collectives
    per_event_s: List[float] = field(default_factory=list)


@dataclass
class LaunchResult:
    backend: str
    results: List[RankResult]
    timings: List[RankTiming]
    wall_s: float  # parent-side elapsed time for the whole launch
    #: scheduler observability (taskgraph backend): steal counts, ready
    #: depth, critical path, per-SCC seconds...  ``None`` elsewhere.
    scheduler: Optional[Dict[str, object]] = None

    @property
    def max_rank_wall_s(self) -> float:
        return max((t.wall_s for t in self.timings), default=0.0)


class ExecutionBackend:
    """Interface every execution backend implements."""

    #: registry key; subclasses must override.
    name: str = ""

    def launch(self, spec: LaunchSpec) -> LaunchResult:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def load_node_main(source: str) -> Callable:
        """Exec the generated module into a fresh namespace and return
        its ``node_main``."""
        namespace: Dict[str, object] = {}
        exec(node_code(source), namespace)
        return namespace["node_main"]

    @staticmethod
    def allocate_state(
        bindings: RankBindings,
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
        """Per-rank array storage and scalar dictionary."""
        arrays = {
            name: np.zeros(shape, dtype=np.float64)
            for name, shape in bindings.array_shapes.items()
        }
        scalars = {name: 0.0 for name in bindings.scalars}
        return arrays, scalars

    @staticmethod
    def member_fns(fallback_sets: Sequence[object]) -> List[Callable]:
        return [
            (lambda s: (lambda env, point: s.contains(point, env)))(s)
            for s in fallback_sets
        ]


_REGISTRY: Dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(
    name: str, factory: Callable[[], ExecutionBackend]
) -> None:
    _REGISTRY[name] = factory


def backend_names() -> List[str]:
    return sorted(_REGISTRY)


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate a registered backend; unknown names fail loudly."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(
            f"unknown execution backend {name!r}; registered backends: "
            f"{known}"
        ) from None
    return factory()


def resolve_backend(backend) -> ExecutionBackend:
    """Accept a backend name or an already-constructed backend."""
    if isinstance(backend, ExecutionBackend):
        return backend
    return get_backend(backend)
