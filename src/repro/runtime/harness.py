"""Execution harness: run compiled SPMD programs and validate them.

Responsibilities:

* evaluate the startup **runtime bindings** per rank (grid coordinates,
  symbolic extents, block sizes, the ``vm = B*m + tlb`` VP-block rebinding)
  into a picklable :class:`~repro.runtime.backends.LaunchSpec`;
* hand the spec to the selected **execution backend** (``threads`` by
  default; ``mp`` for one-process-per-rank; ``inproc-seq`` for the
  deterministic golden reference — see :mod:`repro.runtime.backends`);
* **validate** the distributed result against the serial interpreter by
  comparing each element on its owner rank (ownership evaluated numerically
  from the layout descriptors) — identical for every backend;
* replay traces through the cost model for predicted times, reported
  alongside the backend's *measured* wall-clock timings.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hpf.layout import (
    DataMapping,
    Layout,
    PHYS_BLOCK,
    PHYS_CYCLIC,
    PHYS_CYCLIC_K,
    VP_BLOCK,
    VP_CYCLIC,
    VP_CYCLIC_K,
)
from ..hpf.procgrid import RuntimeBinding
from ..isets import LinExpr
from ..lang.ast import BinOp, Call, Expr, Name, Num, UnOp
from ..lang.interp import run_serial
from ..core.driver import CompiledProgram
from ..core.inplace import evaluate_at_runtime
from .backends import (
    LaunchSpec,
    RankBindings,
    RankTiming,
    resolve_backend,
)
from .cost import CostModel, ReplayResult, replay
from .errors import (
    CommunicationError,
    ResultDivergenceError,
    is_transient,
)
from .machine import RankResult
from .options import RuntimeOptions
from .trace import RunStatistics, Trace


class ValidationError(AssertionError):
    """Parallel result differs from the serial reference."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor re-launches after *transient* failures.

    ``max_attempts`` is per backend in the chain; backoff grows
    exponentially with **deterministic** jitter — the jitter fraction is
    drawn from ``Random((seed, attempt))``, so a supervised chaos run is
    exactly reproducible, sleeps included.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_frac: float = 0.25
    seed: int = 0
    #: exponential growth ceiling (pre-jitter).  ``None`` leaves the
    #: backoff unbounded — fine for a handful of launch retries, wrong
    #: for open-ended loops like the compile-pool respawn governor,
    #: which would otherwise sleep for minutes after a crash streak.
    backoff_cap_s: Optional[float] = None

    def __post_init__(self):
        # A budget of zero would make no launch and leave nothing to
        # report.
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Delay before re-launching after global attempt ``attempt``."""
        base = self.backoff_base_s * self.backoff_factor ** attempt
        if self.backoff_cap_s is not None:
            base = min(base, self.backoff_cap_s)
        rng = random.Random(f"retrypolicy:{self.seed}:{attempt}")
        return base * (1.0 + self.jitter_frac * rng.random())


@dataclass
class AttemptRecord:
    """One supervised launch attempt, successful or not."""

    attempt: int  # global attempt index across the backend chain
    backend: str
    outcome: str  # "ok" or the error class name
    error: str = ""
    wall_s: float = 0.0
    backoff_s: float = 0.0  # sleep taken *after* this attempt failed

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def _supervised_launch(spec, backends, policy):
    """Launch ``spec``, retrying transiently and degrading down the chain.

    Tries each backend up to ``policy.max_attempts`` times.  Permanent
    failures (``is_transient(exc)`` false — tag mismatches, divergence)
    raise immediately; transient ones (crashes, timeouts, launch
    failures) consume the retry budget with backoff, then fall through
    to the next backend.  The fault plan is re-filtered per *global*
    attempt index (``FaultPlan.for_attempt``), which is how injected
    transient faults expire.  Every attempt — including the failed ones
    behind an eventual success — is recorded; on failure the records are
    attached to the raised error as ``exc.attempts``.
    """
    attempts: List[AttemptRecord] = []
    plan = spec.options.fault_plan
    attempt_index = 0
    last_exc: Optional[CommunicationError] = None
    total = len(backends) * policy.max_attempts
    for backend in backends:
        for _ in range(policy.max_attempts):
            spec_k = spec
            if plan is not None:
                spec_k = dataclasses.replace(
                    spec,
                    options=spec.options.with_(
                        fault_plan=plan.for_attempt(attempt_index)
                    ),
                )
            start = time.perf_counter()
            try:
                launch = backend.launch(spec_k)
            except CommunicationError as exc:
                record = AttemptRecord(
                    attempt_index,
                    backend.name,
                    type(exc).__name__,
                    exc.message,
                    time.perf_counter() - start,
                )
                attempts.append(record)
                last_exc = exc
                attempt_index += 1
                if not is_transient(exc):
                    exc.attempts = attempts
                    raise
                if attempt_index < total:
                    record.backoff_s = policy.backoff_s(attempt_index - 1)
                    time.sleep(record.backoff_s)
                continue
            attempts.append(
                AttemptRecord(
                    attempt_index,
                    backend.name,
                    "ok",
                    wall_s=time.perf_counter() - start,
                )
            )
            return launch, backend, attempts
    assert last_exc is not None
    last_exc.attempts = attempts
    raise last_exc


def cross_check_results(
    results: List[RankResult],
    reference: List[RankResult],
    context: str = "",
) -> None:
    """Raise :class:`ResultDivergenceError` unless two runs agree.

    Compares every rank's arrays and scalars element-wise against a
    reference run (typically ``inproc-seq``, the deterministic golden
    backend) — the chaos matrix uses this to prove a fault can corrupt
    nothing silently.
    """
    prefix = f"{context}: " if context else ""
    if len(results) != len(reference):
        raise ResultDivergenceError(
            f"{prefix}rank count diverged: {len(results)} vs "
            f"{len(reference)} in the reference run"
        )
    for got, want in zip(results, reference):
        for name in want.arrays:
            if not np.allclose(
                got.arrays[name], want.arrays[name],
                rtol=1e-9, atol=1e-9,
            ):
                raise ResultDivergenceError(
                    f"{prefix}array {name!r} on rank {want.rank} "
                    "diverged from the reference run"
                )
        for name in want.scalars:
            if not np.isclose(
                got.scalars[name], want.scalars[name],
                rtol=1e-9, atol=1e-9,
            ):
                raise ResultDivergenceError(
                    f"{prefix}scalar {name!r} on rank {want.rank}: "
                    f"{got.scalars[name]!r} vs reference "
                    f"{want.scalars[name]!r}"
                )


def eval_lang_expr(expr: Expr, env: Mapping[str, int]) -> int:
    """Integer evaluation of a language expression (Fortran division)."""
    if isinstance(expr, Num):
        return int(expr.value)
    if isinstance(expr, Name):
        return int(env[expr.ident])
    if isinstance(expr, UnOp):
        return -eval_lang_expr(expr.operand, env)
    if isinstance(expr, BinOp):
        left = eval_lang_expr(expr.left, env)
        right = eval_lang_expr(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return int(math.trunc(left / right))
    if isinstance(expr, Call) and expr.func == "max":
        return max(eval_lang_expr(a, env) for a in expr.args)
    if isinstance(expr, Call) and expr.func == "min":
        return min(eval_lang_expr(a, env) for a in expr.args)
    raise ValueError(f"cannot evaluate {expr!r} at startup")


def _eval_value(value, env: Mapping[str, int]) -> int:
    """Evaluate an int | LinExpr | language Expr."""
    if isinstance(value, int):
        return value
    if isinstance(value, LinExpr):
        return value.evaluate({name: env[name] for name in value.variables()})
    return eval_lang_expr(value, env)


def evaluate_bindings(
    mapping: DataMapping,
    params: Mapping[str, int],
    nprocs: int,
    rank: int,
) -> Dict[str, int]:
    """Startup symbol environment for one rank."""
    env: Dict[str, int] = dict(params)
    env["nprocs"] = nprocs
    for decl in mapping.program.parameters:
        if decl.name not in env:
            if decl.value is None:
                raise ValueError(f"parameter {decl.name} unbound")
            env[decl.name] = decl.value
    for binding in mapping.runtime_bindings():
        if binding.kind == "expr":
            env[binding.symbol] = eval_lang_expr(binding.args[0], env)
        elif binding.kind == "ceil_div":
            numerator = _eval_value(binding.args[0], env)
            denominator = _eval_value(binding.args[1], env)
            env[binding.symbol] = -((-numerator) // denominator)
        elif binding.kind == "grid_coord":
            extents = [_eval_value(e, env) for e in binding.args[0]]
            total = 1
            for extent in extents:
                total *= extent
            if total != nprocs:
                raise ValueError(
                    f"grid extents {extents} do not match nprocs={nprocs}"
                )
            dim = binding.args[1]
            if dim is None:
                env[binding.symbol] = rank
            else:
                remainder = rank
                coords = []
                for extent in reversed(extents):
                    coords.append(remainder % extent)
                    remainder //= extent
                coords.reverse()
                env[binding.symbol] = coords[dim]
        elif binding.kind == "vp_block":
            block = _eval_value(binding.args[0], env)
            tlb = _eval_value(binding.args[1], env)
            env[binding.symbol] = block * env[binding.symbol] + tlb
        else:
            raise ValueError(f"unknown binding kind {binding.kind!r}")
    return env


def owner_coordinate(
    layout: Layout, grid_dim: int, index: Tuple[int, ...],
    env: Mapping[str, int],
) -> Optional[int]:
    """Physical coordinate owning an element along one grid dim.

    ``None`` means replicated along this grid dim (every coordinate owns).
    """
    ownership = layout.ownerships[grid_dim]
    if ownership is None:
        return None
    image = layout.align_images.get(grid_dim)
    if image is None:
        return None
    dims = layout.data_dims
    binding = dict(zip(dims, index))
    t = image.evaluate({v: binding.get(v, env.get(v, 0))
                        for v in image.variables()})
    tlb = _eval_value(ownership.template_lb, env)
    count = _eval_value(ownership.proc_count, env)
    if ownership.kind in (PHYS_BLOCK, VP_BLOCK):
        if ownership.kind == PHYS_BLOCK:
            block = ownership.block_size
        else:
            tub = _eval_value(ownership.template_ub, env)
            block = -((-(tub - tlb + 1)) // count)
        return min((t - tlb) // block, count - 1)
    if ownership.kind in (PHYS_CYCLIC, VP_CYCLIC):
        return (t - tlb) % count
    # cyclic(k)
    k = _eval_value(ownership.block_size, env)
    return ((t - tlb) // k) % count


def rank_of_coords(extents: List[int], coords: List[int]) -> int:
    rank = 0
    for extent, coord in zip(extents, coords):
        rank = rank * extent + coord
    return rank


@dataclass
class RunOutcome:
    compiled: CompiledProgram
    nprocs: int
    results: List[RankResult]
    stats: RunStatistics
    replay: ReplayResult
    serial_time: float  # predicted serial time under the same cost model
    env0: Dict[str, int]
    #: which execution backend produced the results.
    backend: str = "threads"
    #: measured (not modeled) per-rank wall-clock timings.
    timings: List[RankTiming] = field(default_factory=list)
    #: parent-side elapsed wall-clock for the whole launch.
    launch_wall_s: float = 0.0
    #: parent-side wall-clock of :func:`build_launch_spec` (bindings and
    #: run-time in-place verdicts) — what a launch costs before it starts.
    spec_wall_s: float = 0.0
    #: per-cache memoization counters of the compile that produced this
    #: run's program (mirrors ``compiled.phases.cache_stats``).
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: every supervised launch attempt (retries and backend fallbacks
    #: included) — the last entry is the one that produced ``results``.
    attempts: List[AttemptRecord] = field(default_factory=list)

    @property
    def predicted_time(self) -> float:
        return self.replay.time

    @property
    def speedup(self) -> float:
        return self.serial_time / self.replay.time

    @property
    def max_rank_wall_s(self) -> float:
        """Slowest rank's measured wall-clock (the SPMD critical path)."""
        return max((t.wall_s for t in self.timings), default=0.0)


def independent_arrays(compiled: CompiledProgram) -> Tuple[str, ...]:
    """Arrays with no cross-statement same-element access pairs.

    This is the integer-set dependence analysis (:mod:`repro.core.depend`)
    answering a coarser question than communication placement asks: for
    which arrays is *every* (write, other-access) pair either within one
    statement instance or provably element-disjoint?  The taskgraph
    planner may then drop compute-compute ordering edges carried only by
    such arrays — name-level conflicts that the sets refute (e.g. two
    nests updating disjoint regions of one array).

    Sound by construction: an array qualifies only if (a) no pair of
    references from *different* statements can ever touch a common
    element (:func:`same_element_possible`), and (b) no write can touch
    the same element as any reference of its *own* statement on a
    different iteration (:func:`dependence_level` in both directions) —
    so split pieces of one nest are reorderable too.  Arrays referenced
    in more than one procedure are conservatively excluded.  The result
    is memoized on the compiled program; analysis failures degrade to
    "no hints".
    """
    cached = compiled.__dict__.get("_independent_arrays")
    if cached is not None:
        return cached
    from ..core.context import collect_contexts
    from ..core.depend import dependence_level, same_element_possible

    hints: List[str] = []
    try:
        mapping = compiled.mapping
        refs_by_array: Dict[str, List[Tuple[int, object, object]]] = {}
        proc_of_array: Dict[str, set] = {}
        for procedure in compiled.program.procedures:
            contexts = collect_contexts(compiled.program, procedure)
            for stmt_idx, ctx in enumerate(contexts):
                for ref in ctx.references():
                    refs_by_array.setdefault(ref.array, []).append(
                        (stmt_idx, ctx, ref)
                    )
                    proc_of_array.setdefault(ref.array, set()).add(
                        procedure.name
                    )
        for array, refs in sorted(refs_by_array.items()):
            if len(proc_of_array[array]) != 1:
                continue
            writes = [r for r in refs if r[2].is_write]
            if not writes:
                continue  # read-only: never part of a conflict anyway
            if _array_refs_independent(
                writes, refs, mapping.layout(array), dependence_level,
                same_element_possible,
            ):
                hints.append(array)
    except Exception:
        hints = []
    result = tuple(hints)
    compiled.__dict__["_independent_arrays"] = result
    return result


def _array_refs_independent(
    writes, refs, layout, dependence_level, same_element_possible
) -> bool:
    for w_idx, w_ctx, w_ref in writes:
        for o_idx, o_ctx, o_ref in refs:
            if o_idx == w_idx:
                # Same statement: only *cross-iteration* aliasing
                # matters (same-iteration pairs stay inside one unit).
                depth = len(w_ctx.loops)
                if dependence_level(
                    w_ctx, w_ref, o_ctx, o_ref, layout, depth
                ) is not None:
                    return False
                if dependence_level(
                    o_ctx, o_ref, w_ctx, w_ref, layout, depth
                ) is not None:
                    return False
            elif same_element_possible(
                w_ctx, w_ref, o_ctx, o_ref, layout
            ):
                return False
    return True


def build_launch_spec(
    compiled: CompiledProgram,
    params: Mapping[str, int],
    nprocs: int,
    options: Optional[RuntimeOptions] = None,
) -> LaunchSpec:
    """Evaluate all per-rank startup state into a picklable launch spec.

    Everything symbolic (bindings, array extents, runtime in-place flags)
    is resolved here in the parent, so backends — including out-of-process
    workers — only see plain numbers, names, and the node-program source.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be at least 1, got {nprocs}")
    options = options or RuntimeOptions()
    program = compiled.program
    mapping = compiled.mapping
    scalar_names = [s.name for s in program.scalars]
    bindings: List[RankBindings] = []
    for rank in range(nprocs):
        env = evaluate_bindings(mapping, params, nprocs, rank)
        shapes: Dict[str, Tuple[int, ...]] = {}
        lbounds: Dict[str, Tuple[int, ...]] = {}
        for decl in program.arrays:
            lbs = []
            shape = []
            for low, high in decl.extents:
                lo = eval_lang_expr(low, env)
                hi = eval_lang_expr(high, env)
                lbs.append(lo)
                shape.append(hi - lo + 1)
            shapes[decl.name] = tuple(shape)
            lbounds[decl.name] = tuple(lbs)
        inplace = {
            name: _inplace_for_rank(result, layout, env, nprocs, rank)
            for name, result, layout in compiled.module.runtime_inplace
        }
        bindings.append(
            RankBindings(rank, env, shapes, lbounds, scalar_names, inplace)
        )
    return LaunchSpec(
        nprocs,
        compiled.source,
        bindings,
        list(compiled.module.fallback_sets),
        options,
    )


def run_compiled(
    compiled: CompiledProgram,
    params: Mapping[str, int],
    nprocs: int,
    cost_model: Optional[CostModel] = None,
    validate: bool = True,
    serial_work: Optional[float] = None,
    backend: Optional[str] = None,
    runtime_options: Optional[RuntimeOptions] = None,
    retry_policy: Optional[RetryPolicy] = None,
    fallback_backends: Optional[Sequence[str]] = None,
) -> RunOutcome:
    """Execute the compiled program on ``nprocs`` ranks.

    ``backend`` selects the execution substrate (``threads`` default,
    ``mp``, ``inproc-seq``, or any :class:`ExecutionBackend` instance);
    validation and trace replay are identical regardless of backend.

    The launch runs under a supervisor: with a ``retry_policy``,
    transient failures (rank crashes, timeouts, launch errors) are
    retried with deterministic exponential backoff, and once the primary
    backend's budget is exhausted the run degrades down
    ``fallback_backends`` (default: ``runtime_options.fallback_backends``)
    in order.  ``RunOutcome.attempts`` records what actually ran; without
    a policy, a single attempt is made and failures propagate typed
    (see :mod:`repro.runtime.errors`).
    """
    cost_model = cost_model or CostModel()
    options = runtime_options or RuntimeOptions()
    backend_obj = resolve_backend(
        backend if backend is not None else options.backend
    )
    chain = (
        fallback_backends
        if fallback_backends is not None
        else options.fallback_backends
    )
    backends = [backend_obj] + [resolve_backend(name) for name in chain]
    policy = retry_policy or RetryPolicy(max_attempts=1)
    spec_start = time.perf_counter()
    spec = build_launch_spec(compiled, params, nprocs, options)
    spec_wall_s = time.perf_counter() - spec_start
    if any(b.name == "taskgraph" for b in backends):
        # Pay the set-engine cost only when a planner will consume it.
        spec.dep_hints = independent_arrays(compiled)
    launch, backend_obj, attempts = _supervised_launch(
        spec, backends, policy
    )
    results = launch.results
    stats = RunStatistics.from_traces([r.trace for r in results])
    stats.scheduler = launch.scheduler
    replayed = replay([r.trace for r in results], cost_model)
    if serial_work is None:
        serial_work = _serial_work_estimate(results)
    serial_time = serial_work * cost_model.flop_time

    env0 = results[0].env
    if validate:
        _validate(compiled, params, nprocs, results)
    return RunOutcome(
        compiled,
        nprocs,
        results,
        stats,
        replayed,
        serial_time,
        env0,
        backend=backend_obj.name,
        timings=launch.timings,
        launch_wall_s=launch.wall_s,
        spec_wall_s=spec_wall_s,
        cache_stats=dict(compiled.phases.cache_stats),
        attempts=attempts,
    )


def _inplace_for_rank(result, layout, env, nprocs, rank) -> bool:
    """Run-time half of §3.3 with actual partners bound.

    The compile-time predicate may be UNKNOWN only because fictitious
    virtual processors admit violations; binding the partner coordinates
    to the *real* partner VPs (and myid's own) decides it exactly.
    Multi-VP (cyclic) dims fall back to the conservative answer.
    """
    from ..core.inplace import InPlaceResult
    from ..isets import Answer

    if result.answer is Answer.TRUE:
        return True
    if result.answer is Answer.FALSE:
        return False
    grid = layout.grid
    extents = [_eval_value(grid.extents[d], env) for d in range(grid.rank)]
    for ownership in layout.ownerships:
        if ownership is not None and ownership.needs_vp_loops:
            return False  # cyclic VP dims: pack conservatively
    for partner in range(nprocs):
        if partner == rank:
            continue
        coords = []
        remainder = partner
        for extent in reversed(extents):
            coords.append(remainder % extent)
            remainder //= extent
        coords.reverse()
        binding = dict(env)
        for dim, name in enumerate(layout.proc_dims):
            ownership = layout.ownerships[dim]
            coord = coords[dim]
            if ownership is not None and ownership.kind == VP_BLOCK:
                tub = _eval_value(ownership.template_ub, env)
                tlb = _eval_value(ownership.template_lb, env)
                count = _eval_value(ownership.proc_count, env)
                block = -((-(tub - tlb + 1)) // count)
                coord = block * coord + tlb
            binding[name] = coord
        if not evaluate_at_runtime(result, binding):
            return False
    return True


def _serial_work_estimate(results: List[RankResult]) -> float:
    """Total statement work across ranks ≈ serial work (each dynamic
    statement instance executes on at least one rank; replication inflates
    this slightly, which only makes reported speedups conservative)."""
    return sum(r.trace.compute_units for r in results)


def _validate(
    compiled: CompiledProgram,
    params: Mapping[str, int],
    nprocs: int,
    results: List[RankResult],
) -> None:
    """Compare every owned element against the serial interpreter."""
    program = compiled.program
    mapping = compiled.mapping
    serial = run_serial(program, dict(params))
    env_by_rank = [r.env for r in results]
    for decl in program.arrays:
        layout = mapping.layout(decl.name)
        grid = layout.grid
        extents = [
            _eval_value(grid.extents[d], env_by_rank[0])
            for d in range(grid.rank)
        ]
        reference = serial.arrays[decl.name]
        lbs = reference.lbounds
        it = np.ndindex(*reference.data.shape)
        for offsets in it:
            index = tuple(o + lb for o, lb in zip(offsets, lbs))
            coords = []
            for grid_dim in range(grid.rank):
                coord = owner_coordinate(
                    layout, grid_dim, index, env_by_rank[0]
                )
                coords.append(0 if coord is None else coord)
            rank = rank_of_coords(extents, coords)
            got = results[rank].arrays[decl.name][offsets]
            want = reference.data[offsets]
            if not np.isclose(got, want, rtol=1e-9, atol=1e-9):
                raise ValidationError(
                    f"array {decl.name}{list(index)}: rank {rank} has "
                    f"{got!r}, serial reference has {want!r}"
                )
    for scalar in program.scalars:
        want = serial.values.get(scalar.name, 0.0)
        got = results[0].scalars[scalar.name]
        if isinstance(want, (int, float)) and not np.isclose(
            got, want, rtol=1e-9, atol=1e-9
        ):
            raise ValidationError(
                f"scalar {scalar.name}: rank 0 has {got!r}, serial "
                f"reference has {want!r}"
            )
