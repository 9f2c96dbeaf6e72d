"""The compiler driver: source text in, SPMD node program out.

Pipeline (with per-phase instrumentation feeding the Table 1 benchmark):

1. parse and build the data-mapping model;
2. per procedure: collect statement contexts, resolve CPs (§3.1);
3. identify/vectorize/coalesce communication into events (§3.2);
4. run the Figure 3 equations per event, the Figure 5 active-VP equations
   for cyclic VP layouts, and the §3.3 contiguity analysis;
5. loop splitting sets (Figure 4) when enabled;
6. emit the SPMD node program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..isets import Conjunct, IntegerSet, Space
from ..isets.profile import active_profiler, profiled, reference_arm
from ..hpf.layout import DataMapping
from ..lang.ast import Program
from ..lang.parser import parse_program
from ..codegen.spmd import (
    AnalyzedEvent,
    CompiledModule,
    ProcedureAnalysis,
    SpmdEmitter,
)
from .commsets import compute_comm_sets
from .context import collect_contexts
from .cp import CPInfo, resolve_cp
from .events import build_events
from .inplace import analyze_contiguity_per_message
from .loopsplit import compute_split_sets
from .options import CompilerOptions
from .phases import PhaseTimer
from .vp import compute_active_vp_sets


@dataclass
class CompiledProgram:
    """Everything produced by one compilation."""

    program: Program
    mapping: DataMapping
    options: CompilerOptions
    module: CompiledModule
    analyses: Dict[str, ProcedureAnalysis]
    phases: PhaseTimer
    #: True when this artifact was loaded from the persistent compile
    #: cache instead of being compiled (set after load, never stored).
    cache_hit: bool = False

    @property
    def source(self) -> str:
        return self.module.source

    def run(
        self,
        params: Optional[Dict[str, int]] = None,
        nprocs: int = 4,
        backend: Optional[str] = None,
        **kwargs,
    ):
        """Execute this program on an execution backend (see
        :func:`repro.runtime.harness.run_compiled`); ``backend`` may be
        ``'threads'`` (default), ``'mp'``, or ``'inproc-seq'``."""
        from ..runtime.harness import run_compiled

        return run_compiled(
            self, params=params or {}, nprocs=nprocs, backend=backend,
            **kwargs,
        )

    def listing(self) -> str:
        """Human-readable compilation report.

        Mirrors the kind of per-event diagnostics dHPF prints: for every
        statement its CP, and for every communication event its placement,
        references, send/receive maps, how each emitted side scans its map
        (box rows and point lists), in-place verdicts, and (for cyclic
        layouts) the active-VP sets.
        """
        lines = [f"program {self.program.name}"]
        for name, analysis in self.analyses.items():
            lines.append(f"procedure {name}:")
            for stmt_id, cp in sorted(analysis.cps.items()):
                kind = (
                    "replicated" if cp.replicated
                    else " union ".join(
                        f"ON_HOME {t.ref}" for t in cp.terms
                    )
                )
                extra = (
                    f"  [reduction {cp.reduction}]" if cp.reduction else ""
                )
                lines.append(
                    f"  s{stmt_id}: {cp.context.stmt}"
                )
                lines.append(f"      CP = {kind}{extra}")
            for event in analysis.events:
                placed = event.placed
                lines.append(
                    f"  event {event.tag}: array {placed.event.array!r}, "
                    f"{placed.when} anchor, inside {placed.level} loop(s), "
                    f"{len(placed.event.refs)} reference(s)"
                )
                lines.append(f"      send = {event.sets.send_comm_map}")
                lines.append(f"      recv = {event.sets.recv_comm_map}")
                for side in ("send", "recv"):
                    shape = self.module.scan_shapes.get((event.tag, side))
                    if shape is not None:
                        lines.append(f"      {side}: {_scan_shape(*shape)}")
                if event.inplace_send is not None:
                    lines.append(
                        f"      in-place: send {event.inplace_send.answer.value}, "
                        f"recv {event.inplace_recv.answer.value}"
                    )
                if event.active_vp is not None:
                    lines.append(
                        f"      activeSendVPSet = "
                        f"{event.active_vp.active_send_vp}"
                    )
                    lines.append(
                        f"      activeRecvVPSet = "
                        f"{event.active_vp.active_recv_vp}"
                    )
        return "\n".join(lines)


def _scan_shape(rows: int, point_lists: int) -> str:
    """``4 rows`` / ``3 rows, 1 point list (conjunct not a box)``."""
    text = f"{rows} row{'s' * (rows != 1)}"
    if point_lists:
        text += (
            f", {point_lists} point list{'s' * (point_lists != 1)} "
            f"(conjunct not a box)"
        )
    return text


def compile_program(
    source: Union[str, Program],
    options: Optional[CompilerOptions] = None,
) -> CompiledProgram:
    """Compile mini-HPF source (or an AST) to an SPMD node program.

    Caching behaviour (see :mod:`repro.cache`): with
    ``options.caching == "off"`` every memoization layer is bypassed —
    the emitted program is required to be byte-identical either way.
    With ``options.cache_dir`` set and string source, the persistent
    compile cache is consulted first and populated on a miss.
    """
    options = options or CompilerOptions()
    if options.caching == "off":
        with reference_arm(memo_off=True):
            return _compile_program_impl(source, options)

    if options.cache_dir and isinstance(source, str):
        from ..cache.persist import CompileCache, compute_fingerprint

        cache = CompileCache(options.cache_dir)
        fingerprint = compute_fingerprint(source, options)
        loaded = cache.load(fingerprint)
        if loaded is not None:
            loaded.cache_hit = True
            return loaded
        compiled = _compile_program_impl(source, options)
        cache.store(fingerprint, compiled)
        return compiled

    return _compile_program_impl(source, options)


def _compile_program_impl(
    source: Union[str, Program],
    options: CompilerOptions,
) -> CompiledProgram:
    if options.profile_sets:
        with profiled() as profiler:
            compiled = _compile_unprofiled(source, options)
        snapshot = profiler.snapshot()
        compiled.phases.set_stats = snapshot
        outer = active_profiler()
        if outer is not None:
            # Nested under an aggregating profiler (service /stats, bench
            # harnesses): contribute this compile's counters upward too.
            outer.merge_snapshot(snapshot)
        return compiled
    return _compile_unprofiled(source, options)


def _compile_unprofiled(
    source: Union[str, Program],
    options: CompilerOptions,
) -> CompiledProgram:
    from ..cache.manager import caches

    counters_before = caches.counters()
    phases = PhaseTimer()

    with phases.phase("parse"):
        program = (
            parse_program(source) if isinstance(source, str) else source
        )
    with phases.phase("data_mapping"):
        mapping = DataMapping(program)

    analyses: Dict[str, ProcedureAnalysis] = {}
    for procedure in program.procedures:
        with phases.phase("partitioning"):
            contexts = collect_contexts(program, procedure)
            cps = [resolve_cp(mapping, ctx) for ctx in contexts]
            cp_by_stmt = {cp.context.stmt.stmt_id: cp for cp in cps}
        with phases.phase("comm_placement"):
            placed = build_events(mapping, cps, coalesce=options.coalesce)
        analyzed_events: List[AnalyzedEvent] = []
        for index, placed_event in enumerate(placed):
            with phases.phase("communication_generation"):
                sets = compute_comm_sets(placed_event.event)
            if not sets.has_communication():
                continue
            active = None
            if any(
                o is not None and o.needs_vp_loops
                for o in placed_event.event.layout.ownerships
            ):
                with phases.phase("active_vp"):
                    active = compute_active_vp_sets(placed_event.event)
            inplace_send = inplace_recv = None
            if options.inplace:
                with phases.phase("check_contiguous"):
                    from ..isets import IntegerSet as _ISet, Space as _Sp

                    layout = placed_event.event.layout
                    bounds = layout.map.range().simplify()
                    # Per-partner message pieces of the scan maps: keep
                    # partner coordinates symbolic (one conjunct per
                    # coalesced reference), but existentially project the
                    # current-outer-iteration symbols — they are bound per
                    # loop trip, not free parameters.  (For
                    # iteration-dependent sets this unions over trips; the
                    # in-place decision is then conservative cost
                    # accounting, see DESIGN.md.)
                    outer_syms = list(placed_event.event.outer_symbols)
                    send_data = _strip_outer(
                        _ISet(
                            _Sp(sets.send_scan_map.out_dims),
                            sets.send_scan_map.conjuncts,
                        ),
                        outer_syms,
                    )
                    recv_data = _strip_outer(
                        _ISet(
                            _Sp(sets.recv_scan_map.out_dims),
                            sets.recv_scan_map.conjuncts,
                        ),
                        outer_syms,
                    )
                    inplace_send = analyze_contiguity_per_message(
                        send_data, bounds
                    )
                    inplace_recv = analyze_contiguity_per_message(
                        recv_data, bounds
                    )
            analyzed = AnalyzedEvent(
                placed_event,
                sets,
                active,
                inplace_send,
                inplace_recv,
                tag=f"{procedure.name}_ev{index}",
            )
            with phases.phase("comm_outer_iters"):
                analyzed.outer_iters = _event_outer_iters(analyzed)
            analyzed_events.append(analyzed)
        splits = {}
        if options.loop_split:
            with phases.phase("loop_splitting"):
                splits = _compute_splits(
                    mapping, cps, analyzed_events
                )
        analyses[procedure.name] = ProcedureAnalysis(
            procedure.name, cp_by_stmt, analyzed_events, splits
        )

    with phases.phase("codegen"):
        emitter = SpmdEmitter(program, mapping, analyses, options)
        module = emitter.emit_module()
    phases.cache_stats = caches.delta(counters_before)
    phases.freeze()
    return CompiledProgram(
        program, mapping, options, module, analyses, phases
    )


def _strip_outer(subset: IntegerSet, symbols) -> IntegerSet:
    """Existentially eliminate outer-iteration symbols from a data set."""
    from ..isets.omega import project_out

    conjuncts = []
    for conjunct in subset.conjuncts:
        present = [s for s in symbols if conjunct.uses(s)]
        if present:
            conjuncts.extend(project_out(conjunct, present))
        else:
            conjuncts.append(conjunct)
    return IntegerSet(subset.space, conjuncts).simplify()


def _event_outer_iters(analyzed: AnalyzedEvent) -> Optional[IntegerSet]:
    """Iterations of the event's outer loops where myid participates.

    The communication sets are parameterized by the ``<var>_cur`` symbols of
    the loops the event stays inside; projecting everything else away gives
    the set of outer iterations in which this processor sends or receives —
    used to widen partitioned loop bounds so owners keep iterating to feed
    their consumers.
    """
    event = analyzed.placed.event
    outer_syms = event.outer_symbols
    if not outer_syms:
        return None
    variables = [s[: -len("_cur")] for s in outer_syms]
    renaming = dict(zip(outer_syms, variables))
    conjuncts: List[Conjunct] = []
    for comm_map in (analyzed.sets.send_comm_map, analyzed.sets.recv_comm_map):
        hidden = list(comm_map.in_dims) + list(comm_map.out_dims)
        for conjunct in comm_map.conjuncts:
            renamed = conjunct.rename_wildcards_apart().rename(renaming)
            conjuncts.append(renamed.with_wildcards(hidden))
    return IntegerSet(Space(variables), conjuncts).simplify()


def _compute_splits(mapping, cps, analyzed_events):
    """Figure 4(a) sets for statements participating in 'before' events."""
    splits = {}
    for analyzed in analyzed_events:
        if analyzed.placed.when != "before":
            continue
        for event_ref in analyzed.placed.event.refs:
            cp = event_ref.cp
            stmt_id = cp.context.stmt.stmt_id
            if stmt_id in splits:
                continue
            refs = [
                r
                for r in cp.context.references()
                if r.array in mapping.layouts
                and not mapping.layout(r.array).is_fully_replicated()
            ]
            splits[stmt_id] = compute_split_sets(cp, refs, mapping.layouts)
    return splits
