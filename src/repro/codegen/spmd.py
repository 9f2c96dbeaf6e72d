"""SPMD node-program generation.

Turns the analysis results (CP maps, communication sets, split sets, active
VP sets) into an executable Python node program against the
:class:`~repro.runtime.machine.NodeRuntime` API.  The structure follows the
paper:

* partitioned loop bounds come from ``CPMap({m})`` projections (§3.1);
* statements whose iteration sets differ from the emitted nest get exact
  membership guards (hierarchical MMCodeGen usage, §5);
* communication events emit pack / send / recv / unpack code driven by
  ``SendCommMap`` / ``RecvCommMap`` (§3.2), wrapped in physical-partner
  loops and virtual-processor loops per Figure 6 — once per procedure, as
  a module-level ``_ev_<tag>`` function called at every anchor;
* block-distributed VP dims need no VP loops (one active VP per processor,
  §4.1); cyclic dims get VP loops restricted to the active sets (Figure 5);
* loop splitting emits the Figure 4(b) schedule;
* recognized reductions accumulate locally and allreduce right after the
  outermost partitioned loop.
"""

from __future__ import annotations

import itertools
import keyword
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..isets import (
    Conjunct,
    Constraint,
    IntegerMap,
    IntegerSet,
    LinExpr,
    Space,
)
from ..isets.bounds import extract_bounds, inequality_projection
from ..isets.errors import CodegenError
from ..isets.loopgen import (
    GuardNode,
    LoopNode,
    StmtNode,
    generate_loops,
)
from ..hpf.layout import (
    DataMapping,
    DimOwnership,
    Layout,
    VP_BLOCK,
    VP_CYCLIC,
    VP_CYCLIC_K,
)
from ..hpf.procgrid import ProcessorGrid
from ..lang import ast as L
from .pyexpr import (
    PRELUDE,
    SourceWriter,
    emit_conjunct_guard,
    emit_linexpr,
    emit_lower,
    emit_set_guard,
    emit_upper,
)
from .kernels import try_emit_kernel_piece
from ..core.commsets import CommSets
from ..core.cp import CPInfo
from ..core.events import PlacedEvent
from ..core.inplace import InPlaceResult
from ..core.loopsplit import SplitSets, reference_needs_checks
from ..core.options import CompilerOptions
from ..core.vp import ActiveVPSets


@dataclass
class AnalyzedEvent:
    """Everything codegen needs for one communication event."""

    placed: PlacedEvent
    sets: CommSets
    active_vp: Optional[ActiveVPSets]
    inplace_send: Optional[InPlaceResult]
    inplace_recv: Optional[InPlaceResult]
    tag: str = ""
    #: outer-loop iterations in which myid participates (widens bounds).
    outer_iters: Optional[IntegerSet] = None


@dataclass
class ProcedureAnalysis:
    name: str
    cps: Dict[int, CPInfo]  # stmt_id -> CPInfo
    events: List[AnalyzedEvent]
    splits: Dict[int, SplitSets]  # stmt_id -> split sets (when enabled)


@dataclass
class CompiledModule:
    source: str
    fallback_sets: List[IntegerSet]
    #: run-time in-place checks ``(flag name, result, layout)``, one per
    #: distinct flag name read by the source (``rt.inplace[name]``).
    runtime_inplace: List[Tuple[str, InPlaceResult, Layout]]
    #: per-(statement, loop-piece) kernel-qualification outcomes:
    #: ``(stmt_id, loop_var, status, reason)`` with status one of
    #: 'vectorized' | 'scalar' | 'empty' | 'piece-scalar'.  Travels with
    #: the persistent compile cache so warm compiles keep the report.
    kernel_report: List[Tuple[int, str, str, str]] = field(
        default_factory=list
    )


def _weight(expr: L.Expr) -> int:
    """Abstract per-execution cost of an expression (operation count).

    The scalar plane charges this per executed point
    (``_w0[0] += weight``); the kernel plane charges it once per kernel
    launch as ``_w0[2] += weight * trip_count``, so accounting is O(1)
    per launch while the compute-unit totals (and the LogGP phase
    tables that replay them) are identical under both planes."""
    if isinstance(expr, L.BinOp):
        return 1 + _weight(expr.left) + _weight(expr.right)
    if isinstance(expr, L.UnOp):
        return 1 + _weight(expr.operand)
    if isinstance(expr, L.Call):
        return 2 + sum(_weight(a) for a in expr.args)
    if isinstance(expr, L.ArrayRef):
        return 1 + sum(_weight(s) for s in expr.subscripts)
    return 0


class SpmdEmitter:
    """Emits one Python module for a whole program."""

    def __init__(
        self,
        program: L.Program,
        mapping: DataMapping,
        analyses: Dict[str, ProcedureAnalysis],
        options: CompilerOptions,
    ):
        self.program = program
        self.mapping = mapping
        self.analyses = analyses
        self.options = options
        self.fallback_sets: List[IntegerSet] = []
        #: name-keyed: loop splitting emits one event at several sites,
        #: all reading the same flag.
        self.runtime_inplace: Dict[str, Tuple[InPlaceResult, Layout]] = {}
        self._work_counter = itertools.count()
        self._kernel_counter = itertools.count()
        self.kernel_report: List[Tuple[int, str, str, str]] = []

    # ------------------------------------------------------------------ module

    def emit_module(self) -> CompiledModule:
        writer = SourceWriter()
        writer.line('"""Generated SPMD node program (dHPF reproduction)."""')
        writer.line("import numpy as np")
        writer.line()
        for line in PRELUDE.splitlines():
            writer.line(line)
        writer.line()
        for procedure in self.program.procedures:
            self._emit_procedure(writer, procedure)
            writer.line()
        writer.line("def node_main(rt):")
        writer.push()
        writer.line(f"proc_{self.program.main.name}(rt)")
        writer.pop()
        return CompiledModule(
            writer.text(),
            self.fallback_sets,
            [
                (name, result, layout)
                for name, (result, layout) in self.runtime_inplace.items()
            ],
            self.kernel_report,
        )

    # --------------------------------------------------------------- procedures

    def _emit_procedure(self, writer: SourceWriter, procedure: L.Procedure):
        """``def proc_<name>(rt)``, preceded by its event functions."""
        analysis = self.analyses[procedure.name]
        start = len(writer.lines)
        writer.line(f"def proc_{procedure.name}(rt):")
        writer.push()
        writer.line("env = rt.env")
        writer.line("S = rt.scalars")
        for name in self._symbols_needed():
            writer.line(f"{name} = env[{name!r}]")
        for array in self.program.arrays:
            writer.line(f"{array.name} = rt.arrays[{array.name!r}]")
        body_writer = _BodyEmitter(self, writer, analysis)
        body_writer.emit_body(procedure.body, [])
        writer.line("return None")
        writer.pop()
        writer.lines[start:start] = body_writer.event_defs.lines

    def _symbols_needed(self) -> List[str]:
        names = ["nprocs"]
        names += [p.name for p in self.program.parameters]
        for binding in self.mapping.runtime_bindings():
            if binding.symbol not in names:
                names.append(binding.symbol)
        return names

    # ----------------------------------------------------------------- helpers

    def register_fallback(self, subset: IntegerSet) -> int:
        self.fallback_sets.append(subset)
        return len(self.fallback_sets) - 1

    def array_lbounds(self, name: str) -> Tuple[int, ...]:
        decl = self.program.array(name)
        from ..lang.affine import to_affine

        lbs = []
        for low, _high in decl.extents:
            expr = to_affine(low)
            lbs.append(expr)
        return tuple(lbs)


class _BodyEmitter:
    """Emits statements of one procedure body."""

    def __init__(
        self,
        emitter: SpmdEmitter,
        writer: SourceWriter,
        analysis: ProcedureAnalysis,
    ):
        self.emitter = emitter
        self.w = writer
        self.analysis = analysis
        self.options = emitter.options
        self.mapping = emitter.mapping
        # active rename: *_cur comm symbols -> live loop variables
        self.rename: Dict[str, str] = {}
        # stack of loop vars currently open
        self.open_loops: List[str] = []
        # grid dims whose VP loops are currently open
        self._open_vp_grid_dims: set = set()
        # reductions pending per Do node id
        self._work_var = f"_w{next(emitter._work_counter)}"
        # single-statement scope whose loop bounds make its guard redundant
        self._skip_guard: Optional[CPInfo] = None
        # loop-split section being emitted (Figure 4(b)), else None
        self._section_restrict: Optional[IntegerSet] = None
        self._section_name: Optional[str] = None
        self._section_split: Optional[SplitSets] = None
        # module-level event functions, and the call line per emitted
        # (event, rename) — see _emit_event
        self.event_defs = SourceWriter()
        self._event_calls: Dict[Tuple[int, Tuple], str] = {}

    # ------------------------------------------------------------- body walk

    def emit_body(self, stmts: Sequence[L.Stmt], loop_path: List[L.Do]):
        for stmt in stmts:
            split_plan = None
            if isinstance(stmt, L.Do) and self.options.loop_split:
                split_plan = self._split_plan_for(stmt)
            self._emit_events_for(
                stmt, "before",
                skip=split_plan[0] if split_plan else None,
            )
            if split_plan is not None:
                self._emit_split_schedule(stmt, loop_path, split_plan)
            elif isinstance(stmt, L.Assign):
                self._emit_assign(stmt, loop_path)
            elif isinstance(stmt, L.Do):
                self._emit_do(stmt, loop_path)
            elif isinstance(stmt, L.If):
                self._emit_if(stmt, loop_path)
            elif isinstance(stmt, L.CallStmt):
                self.w.line(f"proc_{stmt.name}(rt)")
            else:
                raise CodegenError(f"cannot emit {stmt!r}")
            self._emit_events_for(stmt, "after")

    def _split_plan_for(self, do: L.Do):
        """Loop splitting applies when exactly one 'before' event is
        anchored at this loop, the statement group's Figure 4 sections are
        available, no VP loops are involved, and there are no non-local
        writes (Figure 4(b)'s read-overlap variant)."""
        anchored = [
            a
            for a in self.analysis.events
            if a.placed.anchor is do and a.placed.when == "before"
        ]
        if len(anchored) != 1 or self._events_under(do):
            return None
        event = anchored[0]
        cps = self._contexts_under(do)
        if not cps or self._vp_dims_for(cps):
            return None
        if any(cp.reduction for cp in cps):
            return None  # reductions flush after the nest; keep it whole
        split = self.analysis.splits.get(
            cps[0].context.stmt.stmt_id
        )
        if split is None or not split.is_worthwhile():
            return None
        if not (
            split.nl_wo_iters.is_empty() and split.nl_rw_iters.is_empty()
        ):
            return None
        return event, split

    def _emit_split_schedule(self, do: L.Do, loop_path, split_plan):
        """Figure 4(b): SEND reads; execute LocalIters; RECV reads;
        execute NLROIters — overlapping the receive latency with the local
        section, and freeing the local section of buffer checks.

        The event's two sides stay inline here rather than becoming an
        ``_ev_*`` function: the local section separates them, and the
        schedule is the event's only emission, so there is no repeat to
        share."""
        event, split = split_plan
        self.w.line(f"# --- loop splitting ({event.tag}) ---")
        self._emit_send_side(event)
        self._section_restrict = split.local_iters
        self._section_name = "local"
        self._section_split = split
        self._emit_do(do, loop_path)
        self._emit_recv_side(event)
        self._section_restrict = split.nl_ro_iters
        self._section_name = "nl_ro"
        self._emit_do(do, loop_path)
        self._section_restrict = None
        self._section_name = None
        self._section_split = None

    # ------------------------------------------------------------ statements

    def _cp_for(self, stmt: L.Assign) -> CPInfo:
        return self.analysis.cps[stmt.stmt_id]

    def _emit_assign(self, stmt: L.Assign, loop_path: List[L.Do]):
        cp = self._cp_for(stmt)
        if not cp.replicated and cp.layout is not None:
            unopened = [
                o
                for o in cp.layout.ownerships
                if o is not None
                and o.needs_vp_loops
                and o.grid_dim not in self._open_vp_grid_dims
            ]
            if unopened:
                raise CodegenError(
                    f"statement {stmt} needs VP loops that could not be "
                    f"opened (communication anchored inside every "
                    f"enclosing loop)"
                )
        iters = cp.local_iterations
        restrict = self._section_restrict
        if restrict is not None and not cp.replicated:
            iters = iters.intersect(restrict).simplify()
        dims = cp.iter_dims
        guard = None
        if not cp.replicated and dims:
            guard = self._statement_guard(cp, iters, dims)
        if guard is not None and guard != "True":
            self.w.line(f"if {guard}:")
            self.w.push()
        self._emit_statement_body(stmt, cp)
        if guard is not None and guard != "True":
            self.w.pop()

    def _statement_guard(
        self, cp: CPInfo, iters: IntegerSet, dims: Tuple[str, ...]
    ) -> Optional[str]:
        """Exact membership guard for the open loop iteration.

        Loop bounds already enforce the union of the scope's statements;
        single-statement scopes mark the guard skippable at the Do level by
        setting ``self._skip_guard``.
        """
        if self._skip_guard is cp:
            return None
        simplified = iters.simplify()
        guard = emit_set_guard(simplified, self.rename)
        if guard is None:
            index = self.emitter.register_fallback(simplified)
            args = ", ".join(dims)
            overrides = ", ".join(
                f"{name!r}: {name}"
                for name in simplified.parameters()
                if name.startswith("my_")
            )
            guard = f"rt.member({index}, ({args},), {{{overrides}}})"
        return guard

    def _emit_statement_body(self, stmt: L.Assign, cp: CPInfo):
        weight = max(1, _weight(stmt.rhs))
        value = self._expr(stmt.rhs)
        if isinstance(stmt.lhs, L.ArrayRef):
            target = self._array_index(stmt.lhs)
            self.w.line(f"{target} = {value}")
        else:
            self.w.line(f"S[{stmt.lhs.ident!r}] = {value}")
        self.w.line(f"{self._work_var}[0] += {weight}")
        checks = self._buffer_checks_for(stmt)
        if checks:
            self.w.line(f"{self._work_var}[1] += {checks}")

    def _buffer_checks_for(self, stmt: L.Assign) -> int:
        """Buffer-access ownership checks per execution (§3.4).

        In 'direct' buffer mode every potentially non-local reference pays
        a check, unless loop splitting proves the current section accesses
        only one side (paper: references in local iterations need no
        checks)."""
        if self.options.buffer_mode != "direct":
            return 0
        refs = [
            event_ref.reference
            for analyzed in self.analysis.events
            for event_ref in analyzed.placed.event.refs
            if event_ref.cp.context.stmt is stmt
            and not event_ref.reference.is_write
        ]
        if not refs:
            return 0
        split = self._section_split
        section_name = self._section_name
        if split is None or section_name is None:
            return len(refs)
        section = (
            split.local_iters if section_name == "local"
            else split.nl_ro_iters
        )
        return sum(
            1
            for ref in refs
            if reference_needs_checks(split, ref, section)
        )

    # ------------------------------------------------------------------- loops

    def _contexts_under(self, do: L.Do) -> List[CPInfo]:
        found: List[CPInfo] = []
        for assign in L.walk_statements(do.body):
            if isinstance(assign, L.Assign):
                cp = self.analysis.cps.get(assign.stmt_id)
                if cp is not None:
                    found.append(cp)
        return found

    def _emit_do(self, do: L.Do, loop_path: List[L.Do]):
        cps = self._contexts_under(do)
        depth = len(loop_path)
        outermost = depth == 0
        if outermost:
            # Slot 0: scalar-plane work; slot 1: buffer checks; slot 2:
            # kernel-plane work (charged once per launch).
            self.w.line(f"{self._work_var} = [0, 0, 0]")
            self._emit_reduction_bases(cps)
        if not cps:
            # No assignments below (empty loop): emit the original bounds.
            self._emit_plain_do(do, loop_path)
            if outermost:
                self._flush_work()
            return

        prefix_vars = [d.var for d in loop_path] + [do.var]
        inner_events = self._events_under(do)

        # Virtual-processor loops (cyclic dims, §4.2): wrap the maximal
        # loop subtree containing no communication events.  A sequential
        # loop containing events (e.g. the Gauss pivot loop) stays outside
        # the VP loops, its bounds taken over *all* of myid's VPs.
        pending_vp = [
            o
            for o in self._vp_dims_for(cps)
            if o.grid_dim not in self._open_vp_grid_dims
        ]
        vp_dims: List[DimOwnership] = []
        if pending_vp and not inner_events:
            vp_dims = pending_vp
            busy = self._busy_union(cps, [d.var for d in loop_path])
            self._open_vp_loops(vp_dims, busy)
            self._open_vp_grid_dims.update(o.grid_dim for o in vp_dims)

        restrict = self._section_restrict
        union: Optional[IntegerSet] = None
        for cp in cps:
            iters = cp.local_iterations
            if restrict is not None:
                iters = iters.intersect(restrict).simplify()
            projected = iters.project_onto(prefix_vars)
            union = projected if union is None else union.union(projected)
        union = union.simplify()

        # Communication events nested deeper in this loop may need myid to
        # iterate beyond its computation iterations (to send data it owns
        # or receive data it will use later); widen the loop bounds with
        # the events' active outer iterations.
        widened = False
        for analyzed in inner_events:
            outer = analyzed.outer_iters
            if outer is None:
                continue
            projected = outer.project_onto(
                [v for v in prefix_vars if v in outer.space.in_dims]
            )
            if projected.space.in_dims != tuple(prefix_vars):
                continue  # event not governed by this loop level
            strided = any(
                c.wildcards
                for s in (projected, union)
                for c in s.conjuncts
            )
            if strided:
                # Exact subset tests on strided unions can splinter badly;
                # widen unconditionally (statements keep exact guards).
                union = union.union(projected).simplify()
                widened = True
            elif not projected.is_subset(union):
                union = union.union(projected).simplify()
                widened = True

        # Loops outside still-pending VP loops must range over the union of
        # myid's virtual processors: eliminate the VP my-symbols.
        still_pending = [
            o
            for o in self._vp_dims_for(cps)
            if o.grid_dim not in self._open_vp_grid_dims
        ]
        if still_pending:
            syms = [
                self._grid_of(o).my_names[o.grid_dim] for o in still_pending
            ]
            union = _eliminate_symbols(union, syms)
            widened = True

        # Single statement and single conjunct: bounds are exact, no guard
        # (unless communication widened the loop bounds or a loop-split
        # section restriction is active).
        if (
            len(cps) == 1 and len(union.conjuncts) <= 1 and not widened
            and restrict is None
        ):
            all_dims_set = cps[0].local_iterations
            if len(all_dims_set.conjuncts) <= 1:
                self._skip_guard = cps[0]

        if len(union.conjuncts) <= 1:
            pieces = list(union.conjuncts)
        else:
            try:
                pieces = [
                    c
                    for piece in _disjoint(union)
                    for c in piece.conjuncts
                ]
            except Exception:
                # Disjointification can be inexact (wildcards in
                # inequalities).  Fall back to a single bounding loop with
                # runtime min/max bounds; statement guards stay exact.
                self._skip_guard = None
                self._emit_bounding_loop(do, union, prefix_vars, loop_path)
                if vp_dims:
                    self._close_vp_loops(vp_dims)
                    self._open_vp_grid_dims.difference_update(
                        o.grid_dim for o in vp_dims
                    )
                if outermost:
                    self._flush_work()
                    self._emit_reductions_after(do, cps)
                return
        for piece in pieces:
            self._emit_loop_piece(do, piece, prefix_vars, loop_path)
        self._skip_guard = None
        if vp_dims:
            self._close_vp_loops(vp_dims)
            self._open_vp_grid_dims.difference_update(
                o.grid_dim for o in vp_dims
            )
        if outermost:
            self._flush_work()
            self._emit_reductions_after(do, cps)

    def _events_under(self, do: L.Do) -> List[AnalyzedEvent]:
        inner_ids = set()
        for stmt in L.walk_statements(do.body):
            inner_ids.add(id(stmt))
        return [
            analyzed
            for analyzed in self.analysis.events
            if id(analyzed.placed.anchor) in inner_ids
        ]

    def _emit_reduction_bases(self, cps: List[CPInfo]):
        seen = set()
        for cp in cps:
            if cp.reduction == "+" and not cp.replicated:
                target = cp.context.stmt.lhs.ident
                if target not in seen:
                    seen.add(target)
                    self.w.line(f"rt.red_base[{target!r}] = S[{target!r}]")

    def _emit_bounding_loop(
        self,
        do: L.Do,
        union: IntegerSet,
        prefix_vars: List[str],
        loop_path: List[L.Do],
    ):
        """One loop covering a union: lb = min over pieces of max(lowers),
        ub = max over pieces of min(uppers); stride 1.  Sound because the
        statements keep exact membership guards."""
        var = do.var
        lower_pieces = []
        upper_pieces = []
        for conjunct in union.conjuncts:
            lowers, uppers, _stride, _base, _mods = _var_bounds(
                conjunct, var, prefix_vars
            )
            if not lowers or not uppers:
                raise CodegenError(f"loop {var}: unbounded union piece")
            lower_pieces.append(emit_lower(lowers, self.rename))
            upper_pieces.append(emit_upper(uppers, self.rename))
        lower = (
            lower_pieces[0]
            if len(lower_pieces) == 1
            else f"min({', '.join(lower_pieces)})"
        )
        upper = (
            upper_pieces[0]
            if len(upper_pieces) == 1
            else f"max({', '.join(upper_pieces)})"
        )
        self.w.line(f"for {var} in range({lower}, {upper} + 1):")
        self.w.push()
        self.open_loops.append(var)
        self.rename[f"{var}_cur"] = var
        self.emit_body(do.body, loop_path + [do])
        self.rename.pop(f"{var}_cur", None)
        self.open_loops.pop()
        self.w.pop()

    def _emit_plain_do(self, do: L.Do, loop_path: List[L.Do]):
        from ..lang.affine import to_affine

        lower = emit_linexpr(to_affine(do.lower), self.rename)
        upper = emit_linexpr(to_affine(do.upper), self.rename)
        step = to_affine(do.step).constant
        step_text = "" if step == 1 else f", {step}"
        self.w.line(
            f"for {do.var} in range({lower}, {upper} + 1{step_text}):"
        )
        self.w.push()
        self.open_loops.append(do.var)
        self.rename[f"{do.var}_cur"] = do.var
        self.emit_body(do.body, loop_path + [do])
        self.rename.pop(f"{do.var}_cur", None)
        self.open_loops.pop()
        self.w.pop()

    def _emit_loop_piece(
        self,
        do: L.Do,
        conjunct: Conjunct,
        prefix_vars: List[str],
        loop_path: List[L.Do],
    ):
        if self.options.compute == "kernels" and try_emit_kernel_piece(
            self, do, conjunct, prefix_vars, loop_path
        ):
            return
        var = do.var
        lowers, uppers, stride, base, mods = _var_bounds(
            conjunct, var, prefix_vars
        )
        if not lowers or not uppers:
            raise CodegenError(f"loop {var}: unbounded partitioned range")
        # Constraints not involving the loop variable (parameter or outer
        # conditions distinguishing this disjoint piece) guard the piece.
        guard_constraints = [
            c for c in conjunct.constraints if c.coeff(var) == 0
        ]
        guarded = False
        member_guard: Optional[int] = None
        var_wildcards = {
            w
            for w in conjunct.wildcards
            if any(
                c.coeff(w) for c in conjunct.constraints if c.coeff(var)
            )
        }
        shared = [
            w
            for w in conjunct.wildcards
            if w in var_wildcards
            and any(c.coeff(w) for c in guard_constraints)
        ]
        if shared:
            # A witness couples loop-var constraints to guard constraints:
            # check exact piece membership inside the loop instead.
            member_guard = self.emitter.register_fallback(
                IntegerSet(Space(tuple(prefix_vars)), [conjunct])
            )
        elif guard_constraints:
            guard_wildcards = [
                w
                for w in conjunct.wildcards
                if any(c.coeff(w) for c in guard_constraints)
            ]
            guard_conjunct = Conjunct(guard_constraints, guard_wildcards)
            guard_text = emit_conjunct_guard(guard_conjunct, self.rename)
            if guard_text is None:
                index = self.emitter.register_fallback(
                    IntegerSet(Space(()), [guard_conjunct])
                )
                overrides = ", ".join(
                    f"{name!r}: {name}"
                    for name in sorted(
                        {
                            v
                            for c in guard_constraints
                            for v in c.variables()
                            if v.startswith("my_")
                        }
                    )
                )
                guard_text = f"rt.member({index}, (), {{{overrides}}})"
            if guard_text != "True":
                self.w.line(f"if {guard_text}:")
                self.w.push()
                guarded = True
        lower = emit_lower(lowers, self.rename)
        upper = emit_upper(uppers, self.rename)
        if stride > 1:
            base_text = emit_linexpr(base, self.rename)
            self.w.line(
                f"for {var} in range(_align({lower}, {base_text}, "
                f"{stride}), {upper} + 1, {stride}):"
            )
        else:
            self.w.line(f"for {var} in range({lower}, {upper} + 1):")
        self.w.push()
        inner_guarded = False
        if member_guard is not None:
            args = ", ".join(prefix_vars)
            overrides = ", ".join(
                f"{name!r}: {name}"
                for name in sorted(
                    {
                        v
                        for c in conjunct.constraints
                        for v in c.variables()
                        if v.startswith("my_")
                    }
                )
            )
            self.w.line(
                f"if rt.member({member_guard}, ({args},), {{{overrides}}}):"
            )
            self.w.push()
            inner_guarded = True
        if mods:
            conds = " and ".join(
                f"({emit_linexpr(expr, self.rename)}) % {modulus} == 0"
                for expr, modulus in mods
            )
            self.w.line(f"if {conds}:")
            self.w.push()
            mods_guarded = True
        else:
            mods_guarded = False
        self.open_loops.append(var)
        self.rename[f"{var}_cur"] = var
        self.emit_body(do.body, loop_path + [do])
        self.rename.pop(f"{var}_cur", None)
        self.open_loops.pop()
        if mods_guarded:
            self.w.pop()
        if inner_guarded:
            self.w.pop()
        self.w.pop()
        if guarded:
            self.w.pop()

    def _flush_work(self):
        self.w.line(f"rt.work({self._work_var}[0])")
        self.w.line(f"rt.work({self._work_var}[2], vectorized=True)")
        self.w.line(f"rt.check({self._work_var}[1])")

    # -------------------------------------------------------------- reductions

    def _emit_reductions_after(self, do: L.Do, cps: List[CPInfo]):
        seen = set()
        for cp in cps:
            if cp.reduction is None or cp.replicated:
                continue
            target = cp.context.stmt.lhs.ident
            if (target, cp.reduction) in seen:
                continue
            seen.add((target, cp.reduction))
            if cp.reduction == "+":
                # Subtract the pre-nest value so it is counted once.
                self.w.line(
                    f"S[{target!r}] = rt.allreduce('+', "
                    f"S[{target!r}] - rt.red_base[{target!r}]) "
                    f"+ rt.red_base[{target!r}]"
                )
            else:
                self.w.line(
                    f"S[{target!r}] = rt.allreduce("
                    f"{cp.reduction!r}, S[{target!r}])"
                )

    # ------------------------------------------------------------------- ifs

    def _emit_if(self, stmt: L.If, loop_path: List[L.Do]):
        cond = self._expr(stmt.cond)
        self.w.line(f"if {cond}:")
        self.w.push()
        if stmt.then_body:
            self.emit_body(stmt.then_body, loop_path)
        else:
            self.w.line("pass")
        self.w.pop()
        if stmt.else_body:
            self.w.line("else:")
            self.w.push()
            self.emit_body(stmt.else_body, loop_path)
            self.w.pop()

    # ----------------------------------------------------------- VP loops

    def _vp_dims_for(self, cps: List[CPInfo]) -> List[DimOwnership]:
        dims: List[DimOwnership] = []
        seen = set()
        for cp in cps:
            if cp.replicated or cp.layout is None:
                continue
            for ownership in cp.layout.ownerships:
                if ownership is None or not ownership.needs_vp_loops:
                    continue
                if ownership.grid_dim in seen:
                    continue
                seen.add(ownership.grid_dim)
                dims.append(ownership)
        return dims

    def _busy_union(
        self, cps: List[CPInfo], outer_vars: Optional[List[str]] = None
    ) -> IntegerSet:
        """``busyVPSet`` of the statements, parameterized by the current
        iteration of the loops enclosing the VP loops (paper Figure 5:
        the Gauss busy set depends on PIVOT)."""
        from ..isets import Constraint as _C, LinExpr as _L

        busy: Optional[IntegerSet] = None
        for cp in cps:
            if cp.replicated:
                continue
            cp_map = cp.cp_map
            if outer_vars:
                constraints = [
                    _C.eq(_L.var(dim), _L.var(var))
                    for dim, var in zip(cp_map.out_dims, outer_vars)
                ]
                cp_map = cp_map.constrain(constraints)
            domain = cp_map.domain()
            busy = domain if busy is None else busy.union(domain)
        return busy.simplify() if busy is not None else None

    def _open_vp_loops(
        self, dims: List[DimOwnership], active: Optional[IntegerSet]
    ):
        """Figure 6(c): wrap VP loops restricted to myid's active VPs."""
        for ownership in dims:
            grid = self._grid_of(ownership)
            my = grid.my_names[ownership.grid_dim]
            dim_name = grid.dim_names[ownership.grid_dim]
            count = emit_linexpr(
                grid.extent_affine(ownership.grid_dim), self.rename
            )
            if self.options.active_vp and active is not None:
                lowers, uppers = _set_dim_bounds(active, dim_name)
            else:
                lowers = uppers = None
            if not lowers or not uppers:
                tlb = emit_linexpr(ownership.template_lb, self.rename)
                tub = emit_linexpr(ownership.template_ub, self.rename)
                if ownership.kind == VP_CYCLIC_K:
                    lower_text, upper_text = "1", (
                        f"_cdiv({tub} - {tlb} + 1, {ownership.block_size})"
                    )
                else:
                    lower_text, upper_text = tlb, tub
            else:
                lower_text = emit_lower(lowers, self.rename)
                upper_text = emit_upper(uppers, self.rename)
            residue = self._vp_residue(ownership, f"env[{my!r}]")
            self.w.line(
                f"for {my} in range(_align({lower_text}, {residue}, "
                f"{count}), {upper_text} + 1, {count}):"
            )
            self.w.push()

    def _close_vp_loops(self, dims: List[DimOwnership]):
        for _ in dims:
            self.w.pop()

    def _grid_of(self, ownership: DimOwnership) -> ProcessorGrid:
        for template in self.mapping.templates.values():
            if ownership in template.ownerships:
                return template.grid
        raise CodegenError("ownership without grid")

    def _vp_residue(self, ownership: DimOwnership, rank_text: str) -> str:
        """First VP coordinate owned by the given physical coordinate."""
        tlb = emit_linexpr(ownership.template_lb, self.rename)
        if ownership.kind == VP_CYCLIC:
            return f"({rank_text} + {tlb})"
        if ownership.kind == VP_CYCLIC_K:
            return f"({rank_text} + 1)"
        raise CodegenError(f"no VP residue for {ownership.kind}")

    # ----------------------------------------------------------- expressions

    def _expr(self, expr: L.Expr) -> str:
        if isinstance(expr, L.Num):
            return str(expr)
        if isinstance(expr, L.Name):
            ident = expr.ident
            if self._is_scalar(ident):
                return f"S[{ident!r}]"
            return ident
        if isinstance(expr, L.ArrayRef):
            return self._array_index(expr)
        if isinstance(expr, L.BinOp):
            op = {"/=": "!="}.get(expr.op, expr.op)
            if op == "/":
                return (
                    f"({self._expr(expr.left)} / {self._expr(expr.right)})"
                )
            return f"({self._expr(expr.left)} {op} {self._expr(expr.right)})"
        if isinstance(expr, L.UnOp):
            return f"(-{self._expr(expr.operand)})"
        if isinstance(expr, L.Call):
            args = ", ".join(self._expr(a) for a in expr.args)
            func = {"mod": "np.mod", "sqrt": "np.sqrt", "exp": "np.exp"}.get(
                expr.func, expr.func
            )
            return f"{func}({args})"
        raise CodegenError(f"cannot emit expression {expr!r}")

    def _is_scalar(self, ident: str) -> bool:
        return any(s.name == ident for s in self.emitter.program.scalars)

    def _array_index(self, ref: L.ArrayRef) -> str:
        lbs = self.emitter.array_lbounds(ref.array)
        parts = []
        for sub, lb in zip(ref.subscripts, lbs):
            sub_text = self._expr(sub)
            lb_text = emit_linexpr(lb, self.rename)
            parts.append(f"({sub_text}) - {lb_text}")
        return f"{ref.array}[{', '.join(parts)}]"

    # -------------------------------------------------------------- comm events

    def _emit_events_for(self, stmt: L.Stmt, when: str, skip=None):
        for event in self.analysis.events:
            if event is skip:
                continue
            if event.placed.anchor is stmt and event.placed.when == when:
                self._emit_event(event)

    def _emit_event(self, event: AnalyzedEvent):
        """One call line at the anchor; the event's code is written once
        per procedure, as ``def _ev_<tag>(rt, ...)`` in ``event_defs``.

        The code depends on the event and the ``*_cur`` renames only, so
        a repeat anchor (the same statement emitted in several disjoint
        loop pieces) reuses the function.  Its parameters are the names
        the written body reads but never assigns: enclosing loop
        variables and procedure bindings, passed under their own names so
        the task-graph planner can inline the call by reference."""
        key = (id(event), tuple(sorted(self.rename.items())))
        call = self._event_calls.get(key)
        if call is None:
            outer, self.w = self.w, SourceWriter()
            self.w.push()
            self.w.line(f"# --- communication event {event.tag} "
                        f"({event.placed.event.array}) ---")
            self._emit_send_side(event)
            self._emit_recv_side(event)
            body, self.w = self.w, outer
            if len(body.lines) == 1:
                body.line("pass")  # both sides empty
            variant = sum(k[0] == key[0] for k in self._event_calls)
            name = f"_ev_{event.tag}" + (f"_{variant}" if variant else "")
            args = ", ".join(["rt"] + _free_names(body.text()))
            self.event_defs.line(f"def {name}({args}):")
            self.event_defs.lines += body.lines
            self.event_defs.line()
            call = self._event_calls[key] = f"{name}({args})"
        self.w.line(call)

    # The send side: pack per partner, then send (Figure 6 structure).
    def _emit_send_side(self, event: AnalyzedEvent):
        layout = event.placed.event.layout
        comm_map = event.sets.send_comm_map
        tag = f"{event.tag}s"
        inplace = self._inplace_flag(event, "send")
        self._emit_comm_side(
            layout, comm_map, event.sets.send_scan_map, tag, sending=True,
            active=event.active_vp.active_send_vp
            if event.active_vp is not None else None,
            inplace_flag=inplace,
            enabled=not comm_map.is_empty(),
        )

    def _emit_recv_side(self, event: AnalyzedEvent):
        layout = event.placed.event.layout
        comm_map = event.sets.recv_comm_map
        tag = f"{event.tag}s"  # must match the sender's tag
        inplace = self._inplace_flag(event, "recv")
        self._emit_comm_side(
            layout, comm_map, event.sets.recv_scan_map, tag, sending=False,
            active=event.active_vp.active_recv_vp
            if event.active_vp is not None else None,
            inplace_flag=inplace,
            enabled=not comm_map.is_empty(),
        )

    def _inplace_flag(self, event: AnalyzedEvent, side: str) -> str:
        if not self.options.inplace:
            return "False"
        result = (
            event.inplace_send if side == "send" else event.inplace_recv
        )
        if result is None:
            return "False"
        from ..isets import Answer

        if result.answer is Answer.TRUE:
            return "True"
        if result.answer is Answer.FALSE:
            return "False"
        name = f"_inplace_{event.tag}_{side}"
        self.emitter.runtime_inplace.setdefault(
            name, (result, event.placed.event.layout)
        )
        return f"rt.inplace[{name!r}]"

    def _emit_comm_side(
        self,
        layout: Layout,
        comm_map: IntegerMap,
        scan_map: IntegerMap,
        tag: str,
        sending: bool,
        active: Optional[IntegerSet],
        inplace_flag: str,
        enabled: bool,
    ):
        if not enabled:
            return
        grid = layout.grid
        my_vp_dims = [
            o for o in layout.ownerships
            if o is not None and o.needs_vp_loops
        ]
        verb = "send" if sending else "recv"
        bufs = f"_bufs_{tag}_{verb}"
        self.w.line(f"{bufs} = {{}}")
        # My-side VP loops (cyclic dims): restrict to active VPs of myid.
        if my_vp_dims:
            use = active if self.options.active_vp else None
            self._open_vp_loops(my_vp_dims, use)
        # Physical partner loops, one per grid dim.
        partner_vars = []
        for dim in range(grid.rank):
            extent = emit_linexpr(grid.extent_affine(dim), self.rename)
            qvar = f"_q{dim}"
            partner_vars.append(qvar)
            self.w.line(f"for {qvar} in range({extent}):")
            self.w.push()
        rank_expr = self._linearize(grid, partner_vars)
        self.w.line(f"_qrank = {rank_expr}")
        self.w.line("if _qrank == rt.rank:")
        self.w.push()
        self.w.line("pass")
        self.w.pop()
        self.w.line("else:")
        self.w.push()

        # Bind partner (virtual) processor coordinates p_* per grid dim.
        closes = 0
        rename = dict(self.rename)
        for dim in range(grid.rank):
            pname = layout.proc_dims[dim]
            ownership = layout.ownerships[dim]
            if ownership is None or not ownership.is_vp:
                self.w.line(f"{pname} = {partner_vars[dim]}")
            elif ownership.kind == VP_BLOCK:
                block = self._block_text(ownership)
                tlb = emit_linexpr(ownership.template_lb, rename)
                self.w.line(
                    f"{pname} = {block} * {partner_vars[dim]} + {tlb}"
                )
            else:
                # Partner VP loop (cyclic): stride P, residue of q.
                count = emit_linexpr(
                    grid.extent_affine(dim), rename
                )
                lowers, uppers = _map_proc_bounds(comm_map, pname)
                if not lowers or not uppers:
                    tlb = emit_linexpr(ownership.template_lb, rename)
                    tub = emit_linexpr(ownership.template_ub, rename)
                    lo_text, up_text = tlb, tub
                    if ownership.kind == VP_CYCLIC_K:
                        lo_text = "1"
                        up_text = (
                            f"_cdiv({tub} - {tlb} + 1, "
                            f"{ownership.block_size})"
                        )
                else:
                    lo_text = emit_lower(lowers, rename)
                    up_text = emit_upper(uppers, rename)
                residue = self._vp_residue(ownership, partner_vars[dim])
                self.w.line(
                    f"for {pname} in range(_align({lo_text}, {residue}, "
                    f"{count}), {up_text} + 1, {count}):"
                )
                self.w.push()
                closes += 1

        # Data loops from the self-inclusive scan map: under the rank
        # guard above it equals the exact map at every partner emitted.
        data_set = IntegerSet(
            Space(scan_map.out_dims), scan_map.conjuncts
        ).simplify(full=True)
        payload = "PACK" if sending else "COUNT"
        fragments = generate_loops(data_set, payload)
        array = layout.array
        data_dims = scan_map.out_dims

        self._emit_section_fragments(
            fragments, rename, bufs, sending, array, data_dims
        )
        for _ in range(closes):
            self.w.pop()
        self.w.pop()  # else:
        for _ in range(grid.rank):
            self.w.pop()
        if my_vp_dims:
            self._close_vp_loops(my_vp_dims)

        # Transfer phase.
        if sending:
            self.w.line(f"for _q, _secs in {bufs}.items():")
            self.w.push()
            self.w.line(
                f"rt.send_section(_q, {tag!r}, {array!r}, _secs, "
                f"inplace={inplace_flag})"
            )
            self.w.pop()
        else:
            self.w.line(f"for _q, _count in sorted({bufs}.items()):")
            self.w.push()
            self.w.line("if _count:")
            self.w.push()
            self.w.line(
                f"rt.recv_section(_q, {tag!r}, {array!r}, "
                f"inplace={inplace_flag})"
            )
            self.w.pop()
            self.w.pop()

    def _emit_section_fragments(
        self, fragments, rename, bufs, sending, array, data_dims
    ):
        """Descriptor data plane: lower each qualifying fragment to a
        strided section (``("S", ...)``) computed with O(dims) arithmetic;
        fragments whose nests are not rectangular strided spans fall back
        to per-element loops accumulating an exact fancy-index section
        (``("F", ...)``).  Receivers only need element *counts* (the
        sender's descriptors travel with the message), so a qualifying
        fragment contributes a closed-form count product."""
        fancy: List = []
        plans = []
        for node in fragments:
            plan = _section_plan(node, data_dims)
            if plan is None:
                fancy.append(node)
            else:
                plans.append(plan)
        if fancy:
            self.w.line("_fidx = []")
        for guards, loops in plans:
            opened = 0
            for guard in guards:
                self._emit_guard_open(guard, rename)
                opened += 1
            for k, loop in enumerate(loops):
                lower = emit_lower(loop.lowers, rename)
                upper = emit_upper(loop.uppers, rename)
                if loop.stride > 1:
                    base = emit_linexpr(loop.align_base, rename)
                    self.w.line(
                        f"_sl{k} = _align({lower}, {base}, {loop.stride})"
                    )
                else:
                    self.w.line(f"_sl{k} = {lower}")
                self.w.line(f"_su{k} = {upper}")
            nonempty = " and ".join(
                f"_sl{k} <= _su{k}" for k in range(len(loops))
            )
            self.w.line(f"if {nonempty}:")
            self.w.push()
            counts = [
                f"(_su{k} - _sl{k}) // {loop.stride} + 1"
                for k, loop in enumerate(loops)
            ]
            if sending:
                triples = ", ".join(
                    f"(_sl{k}, {count}, {loop.stride})"
                    for k, (count, loop) in enumerate(zip(counts, loops))
                )
                trailing = "," if len(loops) == 1 else ""
                self.w.line(
                    f"{bufs}.setdefault(_qrank, [])"
                    f".append(('S', ({triples}{trailing})))"
                )
            else:
                product = " * ".join(f"({c})" for c in counts)
                self.w.line(
                    f"{bufs}[_qrank] = {bufs}.get(_qrank, 0) + {product}"
                )
            self.w.pop()
            for _ in range(opened):
                self.w.pop()

        if fancy:
            index_tuple = ", ".join(data_dims) + ","

            def emit_leaf(payload_kind: str):
                if sending:
                    self.w.line(f"_fidx.append(({index_tuple}))")
                else:
                    self.w.line(
                        f"{bufs}[_qrank] = {bufs}.get(_qrank, 0) + 1"
                    )

            self._emit_loop_fragments(fancy, rename, emit_leaf)
            if sending:
                self.w.line("if _fidx:")
                self.w.push()
                self.w.line(
                    f"{bufs}.setdefault(_qrank, [])"
                    f".append(('F', tuple(zip(*_fidx))))"
                )
                self.w.pop()

    def _emit_guard_open(self, node: GuardNode, rename) -> None:
        """Open one guard ``if`` (caller pops the indent)."""
        terms = [
            f"({emit_linexpr(c.expr, rename)} "
            f"{'==' if c.is_equality else '>='} 0)"
            for c in node.constraints
        ]
        terms += [
            f"({emit_linexpr(expr, rename)}) % {modulus} == 0"
            for expr, modulus in node.mods
        ]
        conds = " and ".join(terms) or "True"
        self.w.line(f"if {conds}:")
        self.w.push()

    def _block_text(self, ownership: DimOwnership) -> str:
        if isinstance(ownership.block_size, int):
            return str(ownership.block_size)
        return emit_linexpr(ownership.block_size, self.rename)

    def _linearize(self, grid: ProcessorGrid, vars: List[str]) -> str:
        """Row-major rank from grid coordinates."""
        text = vars[0]
        for dim in range(1, grid.rank):
            extent = emit_linexpr(grid.extent_affine(dim), self.rename)
            text = f"({text}) * {extent} + {vars[dim]}"
        return text

    def _emit_loop_fragments(
        self,
        fragments: List,
        rename: Mapping[str, str],
        emit_leaf: Callable[[str], None],
    ):
        for node in fragments:
            self._emit_loop_node(node, rename, emit_leaf)

    def _emit_loop_node(self, node, rename, emit_leaf):
        if isinstance(node, StmtNode):
            emit_leaf(node.payload)
            return
        if isinstance(node, GuardNode):
            self._emit_guard_open(node, rename)
            for child in node.body:
                self._emit_loop_node(child, rename, emit_leaf)
            self.w.pop()
            return
        if isinstance(node, LoopNode):
            lower = emit_lower(node.lowers, rename)
            upper = emit_upper(node.uppers, rename)
            if node.stride > 1:
                base = emit_linexpr(node.align_base, rename)
                self.w.line(
                    f"for {node.var} in range(_align({lower}, {base}, "
                    f"{node.stride}), {upper} + 1, {node.stride}):"
                )
            else:
                self.w.line(
                    f"for {node.var} in range({lower}, {upper} + 1):"
                )
            self.w.push()
            for child in node.body:
                self._emit_loop_node(child, rename, emit_leaf)
            self.w.pop()
            return
        raise CodegenError(f"unknown loop node {node!r}")


# ---------------------------------------------------------------------------
# Event-function parameters
# ---------------------------------------------------------------------------

#: what an event body's text holds besides code: ``'name'`` literals
#: (codegen writes no other strings) and the header comment.
_LITERAL = re.compile(r"'[^'\n]*'|#[^\n]*")
#: names a statement binds: ``for a, b in`` targets and ``x = `` targets.
_BOUND = re.compile(r"^ *(?:for ([\w, ]+) in |(\w+) = )", re.MULTILINE)
#: identifiers read as values: not an attribute (``.x``), a callee
#: (``x(``) or a keyword argument (``x=``).
_VALUE = re.compile(r"(?<![.\w])[A-Za-z_]\w*(?![\w(]|=(?!=))")
_KEYWORDS = frozenset(keyword.kwlist)


def _free_names(body: str) -> List[str]:
    """Names an event body reads as values but never binds, sorted, minus
    ``rt``.  A lexical scan of the written text, several times cheaper
    than parsing it; tests check it against the parsed body."""
    text = _LITERAL.sub("", body)
    bound = {
        name.strip()
        for targets, target in _BOUND.findall(text)
        for name in (targets.split(",") if targets else [target])
    }
    read = set(_VALUE.findall(text)) - _KEYWORDS
    return sorted(read - bound - {"rt"})


# ---------------------------------------------------------------------------
# Section-descriptor qualification
# ---------------------------------------------------------------------------

def _section_plan(node, data_dims: Sequence[str]):
    """Decide whether one ``generate_loops`` fragment is a rectangular
    strided span over ``data_dims``.

    Qualifies when the fragment is (optional data-dim-free GuardNodes)
    wrapping exactly ``len(data_dims)`` LoopNodes in dimension order —
    each with a single child, bounds/align-base free of *other* data
    dims — ending in a StmtNode.  Returns ``(guards, loops)`` or ``None``
    (→ exact fancy-index fallback): triangular conjuncts (inner bounds
    referencing outer data dims), interior guards from secondary stride
    equalities, and disjunctive guards all disqualify.
    """
    dims_set = set(data_dims)

    def _mentions_data_dim(expr: LinExpr) -> bool:
        return any(var in dims_set for var, _coeff in expr.terms())

    guards: List[GuardNode] = []
    while isinstance(node, GuardNode):
        if node.alternatives:
            return None
        if any(c.coeff(d) for c in node.constraints for d in data_dims):
            return None
        if any(_mentions_data_dim(expr) for expr, _m in node.mods):
            return None
        if len(node.body) != 1:
            return None
        guards.append(node)
        node = node.body[0]

    loops: List[LoopNode] = []
    for k, dim in enumerate(data_dims):
        if not isinstance(node, LoopNode) or node.var != dim:
            return None
        inner_dims = dims_set - {d for d in data_dims[:k]} - {dim}
        outer_dims = set(data_dims[:k])
        referenced = set()
        for bound in list(node.lowers) + list(node.uppers):
            referenced.update(v for v, _c in bound.expr.terms())
        if node.align_base is not None:
            referenced.update(v for v, _c in node.align_base.terms())
        if referenced & (outer_dims | inner_dims):
            return None
        if len(node.body) != 1:
            return None
        loops.append(node)
        node = node.body[0]
    if not isinstance(node, StmtNode):
        return None
    return guards, loops


# ---------------------------------------------------------------------------
# Bound helpers
# ---------------------------------------------------------------------------

def _var_bounds(conjunct: Conjunct, var: str, prefix_vars: List[str]):
    """Bounds and stride for a loop var; bounds may reference outer vars,
    parameters, and my-symbols (all in scope in generated code)."""
    from ..isets.loopgen import _detect_strides
    from ..isets.omega import solve_equalities

    solved = solve_equalities(
        conjunct, set(conjunct.free_variables())
    )
    if solved is None:
        return [], [], 1, None, []
    constraints, strides, mod_guards = _detect_strides(solved, prefix_vars)
    keep = set(solved.free_variables())  # everything is symbolic but var
    projected = inequality_projection(
        Conjunct(constraints, ()), keep
    )
    lowers, uppers, _ = extract_bounds(projected, var)
    mods = [(expr, modulus) for expr, modulus, _level in mod_guards]
    stride_info = strides.get(var)
    if stride_info is not None:
        return lowers, uppers, stride_info.modulus, stride_info.base, mods
    return lowers, uppers, 1, None, mods


def _set_dim_bounds(subset: IntegerSet, dim: str):
    """Union bounds of one dim across conjuncts (approximate for unions)."""
    all_lowers, all_uppers = [], []
    for conjunct in subset.conjuncts:
        constraints = inequality_projection(
            conjunct, {dim} | set(conjunct.free_variables())
            - set(subset.space.in_dims)
        )
        lowers, uppers, _ = extract_bounds(constraints, dim)
        if not lowers or not uppers:
            return None, None
        all_lowers.append(lowers)
        all_uppers.append(uppers)
    if len(all_lowers) == 1:
        return all_lowers[0], all_uppers[0]
    # Union of boxes: cannot take max-of-lowers across conjuncts; fall back
    # to unrestricted bounds when shapes differ.
    return None, None


def _map_proc_bounds(comm_map: IntegerMap, pname: str):
    """Bounds for a partner VP dim across the comm map's conjuncts."""
    all_lowers, all_uppers = [], []
    for conjunct in comm_map.conjuncts:
        keep = {pname} | (
            set(conjunct.free_variables())
            - set(comm_map.out_dims) - set(comm_map.in_dims)
        )
        constraints = inequality_projection(conjunct, keep)
        lowers, uppers, _ = extract_bounds(constraints, pname)
        if not lowers or not uppers:
            return None, None
        all_lowers.extend(lowers)
        all_uppers.extend(uppers)
    if not all_lowers:
        return None, None
    # Over-approximate: min of lowers / max of uppers would need runtime
    # min/max across conjuncts; simply pass all bounds through (emit_lower
    # takes max) only when there is a single conjunct.
    if len(comm_map.conjuncts) == 1:
        return all_lowers, all_uppers
    return None, None


def _eliminate_symbols(subset: IntegerSet, symbols: List[str]) -> IntegerSet:
    """Existentially eliminate free symbols (e.g. VP my-coordinates)."""
    from ..isets.omega import project_out as _project_out

    conjuncts = []
    for conjunct in subset.conjuncts:
        present = [s for s in symbols if conjunct.uses(s)]
        if not present:
            conjuncts.append(conjunct)
            continue
        conjuncts.extend(_project_out(conjunct, present))
    return IntegerSet(subset.space, conjuncts).simplify()


def _disjoint(subset: IntegerSet) -> List[IntegerSet]:
    from ..isets.ops import split_disjoint

    return split_disjoint(subset)


