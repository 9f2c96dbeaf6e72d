"""Lower a generated SPMD node program to a statement-instance task DAG.

The emitted node program (see :mod:`repro.codegen.spmd`) is a flat
sequence of top-level statements per procedure: prelude bindings, kernel
pieces, communication-event calls, work-counter flushes, and sequential
*phase loops* (``for iter in range(...)``) whose bodies repeat that
structure per iteration.  This module re-parses that program with
:mod:`ast` and turns it into a
:class:`~repro.runtime.taskgraph.plan.TaskPlan`:

0. **Event inlining** — codegen writes each communication event once, as
   a module-level ``_ev_<tag>(rt, ...)`` function called at every anchor
   with its parameter names as arguments.  Each call statement is
   replaced by the function's body statements *by reference* (never
   copied), so the gather/send/recv loops are top-level statements again
   and every anchor shares one statement object per body statement.
1. **Segmentation** — each top-level statement becomes a work-unit
   template; consecutive plain statements that would be chained anyway
   are merged.  ``rt.*`` calls classify the segment (send / recv /
   collective / call).
2. **Phase-loop unrolling** — a top-level loop containing communication
   whose ``range`` bounds evaluate identically on every rank is unrolled
   into per-iteration *instances*; the loop variable and the
   emitter-private ``_bufs_*`` buffers are renamed per instance, which is
   exactly the renaming that removes their false (WAR) cross-iteration
   dependences.
3. **Dependence edges** — name-level read/write conflicts, refined two
   ways: work-counter increments (``_wN[...] += c``) are commutative and
   do not order two compute segments against each other, and arrays the
   integer-set dependence analysis proved cross-statement independent
   (``LaunchSpec.dep_hints``, from :mod:`repro.core.depend`) are ignored
   between compute templates.  Conflicts give per-rank sequential
   consistency: every pair the analysis cannot reorder executes in
   program order, so results are bitwise identical to the ``threads``
   schedule.
4. **SCC condensation** — the *template* graph additionally carries
   next-iteration (loop-carried) edges, which close cycles
   (compute -> send -> recv -> compute'); Tarjan's algorithm collapses
   them and the condensation is recorded on every unit for per-SCC
   timing and critical-path reporting.
5. **Cross-rank edges** — every send unit of a communication event
   instance precedes every recv unit of the same ``(tag, instance)``,
   so a receive only becomes *ready* once all its messages are in
   flight: receives never occupy a worker waiting (that is where
   communication/computation overlap comes from).

Anything the planner cannot prove safe degrades conservatively: an
unevaluable phase loop stays one (possibly blocking) unit, a program
without the generated-module marker gets the trivial one-unit-per-rank
plan, and a planning failure of any kind (an event call whose arguments
are not its parameter names, say) falls back the same way.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .graph import condense
from .plan import TaskPlan, TaskUnit

__all__ = ["build_task_plan", "trivial_plan", "GENERATED_MARKER"]

#: module docstring marker of programs the segmenting planner accepts.
GENERATED_MARKER = "Generated SPMD node program"

#: hard ceilings: beyond these the plan degrades rather than explodes.
DEFAULT_UNROLL_CAP = 128
MAX_SEGMENTS_PER_RANK = 4000

_COMM_METHODS = {"send_section", "recv_section"}
_COLLECTIVE_METHODS = {"allreduce"}
_ACCOUNTING_METHODS = {"work", "check", "member"}
#: module functions whose calls have an unknown footprint.
_CALL_PREFIXES = ("proc_", "_ev_")


def trivial_plan(nprocs: int, note: str) -> TaskPlan:
    """One ``node_main(rt)`` unit per rank — always correct, no overlap."""
    units = [
        TaskUnit(
            uid=rank,
            rank=rank,
            kind="call",
            code="node_main(rt)",
            label="node_main",
        )
        for rank in range(nprocs)
    ]
    return TaskPlan(
        nprocs=nprocs,
        units=units,
        edges=[],
        template_count=1,
        scc_count=1,
        scc_members=[(0,)],
        notes=[note],
    )


# ---------------------------------------------------------------------------
# segment analysis
# ---------------------------------------------------------------------------


@dataclass
class _SegInfo:
    """Read/write footprint and communication role of one segment."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: names whose *only* writes are commutative ``+=`` increments.
    aug_only: Set[str] = field(default_factory=set)
    #: upward-exposed reads: names possibly read before this segment
    #: writes them (so the incoming value matters).
    exposed: Set[str] = field(default_factory=set)
    #: names definitely written on every path through the segment.
    killed: Set[str] = field(default_factory=set)
    sends: int = 0
    recvs: int = 0
    collectives: int = 0
    unknown_calls: int = 0
    tags: Set[str] = field(default_factory=set)
    has_nest: bool = False

    def kind(self) -> str:
        if self.unknown_calls:
            return "call"
        comm_kinds = (self.sends > 0) + (self.recvs > 0) + (
            self.collectives > 0
        )
        if comm_kinds > 1:
            return "mixed"
        if self.collectives:
            return "collective"
        if self.recvs:
            return "recv"
        if self.sends:
            return "send"
        if self.has_nest or self.writes & {"S"}:
            return "compute"
        return "admin"

    def tag(self) -> str:
        return next(iter(self.tags)) if len(self.tags) == 1 else ""

    def merged_with(self, other: "_SegInfo") -> "_SegInfo":
        info = _SegInfo(
            reads=self.reads | other.reads,
            writes=self.writes | other.writes,
            exposed=self.exposed | (other.exposed - self.killed),
            killed=self.killed | other.killed,
            sends=self.sends + other.sends,
            recvs=self.recvs + other.recvs,
            collectives=self.collectives + other.collectives,
            unknown_calls=self.unknown_calls + other.unknown_calls,
            tags=self.tags | other.tags,
            has_nest=self.has_nest or other.has_nest,
        )
        # A name stays commutative only if *both* sides treat it so
        # (or one side does not write it at all).
        info.aug_only = {
            name
            for name in self.aug_only | other.aug_only
            if (name not in self.writes or name in self.aug_only)
            and (name not in other.writes or name in other.aug_only)
        }
        return info


class _FootprintVisitor(ast.NodeVisitor):
    """Collect the name-level footprint of one statement subtree."""

    def __init__(self, rt_name: str, module_fns: Set[str], arrays: Set[str]):
        self.rt = rt_name
        self.module_fns = module_fns
        self.arrays = arrays
        self.info = _SegInfo()
        self._plain_writes: Set[str] = set()
        #: names definitely assigned on every path reaching the current
        #: visit point — a read of anything else is upward-exposed.
        self._definite: Set[str] = set()

    # -- helpers ------------------------------------------------------------

    def _base_name(self, node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _read(self, name: str) -> None:
        self.info.reads.add(name)
        if name not in self._definite:
            self.info.exposed.add(name)

    def _write(self, target: ast.AST, aug: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write(element, aug)
            return
        if isinstance(target, ast.Starred):
            self._write(target.value, aug)
            return
        name = self._base_name(target)
        if name is None:
            return
        if not isinstance(target, ast.Name):
            self._read(name)  # partial update reads the object
        self.info.writes.add(name)
        if aug and isinstance(target, (ast.Subscript, ast.Name)):
            if name not in self._plain_writes:
                self.info.aug_only.add(name)
        else:
            self._plain_writes.add(name)
            self.info.aug_only.discard(name)
        if isinstance(target, ast.Name):
            self._definite.add(name)
        if isinstance(target, ast.Subscript):
            self.visit(target.slice)

    # -- statements ---------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._write(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self._write(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        base = self._base_name(node.target)
        if base is not None:
            self._read(base)  # in-place update reads the old value
        self._write(node.target, aug=isinstance(node.op, ast.Add))

    def visit_For(self, node: ast.For) -> None:
        self.info.has_nest = True
        self.visit(node.iter)
        outer = set(self._definite)
        self._write(node.target)
        for stmt in node.body:
            self.visit(stmt)
        # The loop may run zero times: nothing it assigns (including the
        # target) is definite afterwards.
        self._definite = set(outer)
        for stmt in node.orelse:
            self.visit(stmt)
        self._definite = outer

    def visit_While(self, node: ast.While) -> None:
        self.info.has_nest = True
        self.visit(node.test)
        outer = set(self._definite)
        for stmt in node.body:
            self.visit(stmt)
        self._definite = set(outer)
        for stmt in node.orelse:
            self.visit(stmt)
        self._definite = outer

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        before = set(self._definite)
        for stmt in node.body:
            self.visit(stmt)
        after_body = self._definite
        self._definite = set(before)
        for stmt in node.orelse:
            self.visit(stmt)
        self._definite = after_body & self._definite

    def visit_Try(self, node: ast.Try) -> None:
        # Any statement in the body may raise mid-way, so handler and
        # downstream reads see an unpredictable subset of its writes.
        outer = set(self._definite)
        for stmt in node.body:
            self.visit(stmt)
        for handler in node.handlers:
            self._definite = set(outer)
            for stmt in handler.body:
                self.visit(stmt)
        self._definite = set(outer)
        for stmt in node.orelse + node.finalbody:
            self.visit(stmt)
        self._definite = outer

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self.rt
        ):
            self._visit_rt_call(func.attr, node)
            return
        if isinstance(func, ast.Attribute):
            base = self._base_name(func)
            if base is not None and base != self.rt:
                # A method call on a local may mutate it (dict.setdefault,
                # list.append, ...) — conservatively a write.
                self._read(base)
                self.info.writes.add(base)
                self._plain_writes.add(base)
                self.info.aug_only.discard(base)
            elif base is None:
                # Chained receiver (``d.setdefault(k, []).append(x)``):
                # the inner expression carries the real footprint.
                self.visit(func.value)
        elif isinstance(func, ast.Name):
            if (
                func.id.startswith(_CALL_PREFIXES)
                and func.id in self.module_fns
            ):
                # Whole-procedure (or un-inlined event) call: unknown
                # footprint.
                self.info.unknown_calls += 1
            else:
                self._read(func.id)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def _visit_rt_call(self, method: str, node: ast.Call) -> None:
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)
        if method == "send_section":
            self.info.sends += 1
        elif method == "recv_section":
            self.info.recvs += 1
        elif method in _COLLECTIVE_METHODS:
            self.info.collectives += 1
        elif method not in _ACCOUNTING_METHODS and method not in (
            "env", "arrays", "scalars", "lbounds", "rank", "nprocs",
            "inplace", "red_base",
        ):
            self.info.unknown_calls += 1
        if method in _COMM_METHODS and len(node.args) >= 2:
            tag = node.args[1]
            if isinstance(tag, ast.Constant) and isinstance(tag.value, str):
                self.info.tags.add(tag.value)
        if method == "send_section" and len(node.args) >= 3:
            name = node.args[2]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self._read(name.value)
        if method == "recv_section" and len(node.args) >= 3:
            name = node.args[2]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self._read(name.value)  # section store: partial update
                self.info.writes.add(name.value)
                self._plain_writes.add(name.value)
                self.info.aug_only.discard(name.value)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)


def _footprint(
    stmt: ast.stmt, rt_name: str, module_fns: Set[str], arrays: Set[str]
) -> _SegInfo:
    visitor = _FootprintVisitor(rt_name, module_fns, arrays)
    visitor.visit(stmt)
    visitor.info.killed = set(visitor._definite)
    visitor.info.reads -= {rt_name}
    visitor.info.exposed -= {rt_name}
    return visitor.info


def _conflict_names(
    a: _SegInfo, b: _SegInfo, private: FrozenSet[str] = frozenset()
) -> Set[str]:
    """Names forcing program order between two segments.

    Commutative work-counter increments (``_wN[...] += c``) are exempt
    when *both* sides only increment: the counters are integer sums whose
    final value is order-independent, and the reset/flush statements that
    do care about order write or read them plainly, so those edges stay.

    ``private`` names (no upward-exposed read in *any* segment of the
    plan — every reader re-initialises them first, e.g. loop indices and
    per-statement bound temporaries) never carry a value between
    segments, so write/write and write/read overlaps on them are not
    dependences.  Rank exclusivity makes the shared-namespace writes
    race-free, and because nothing ever reads such a name before killing
    it, the final value is unobservable in any execution order.
    """
    names = (a.writes & (b.reads | b.writes)) | (a.reads & b.writes)
    return {
        name
        for name in names
        if name not in private
        and not (
            name.startswith("_w")
            and name in a.aug_only
            and name in b.aug_only
        )
    }


# ---------------------------------------------------------------------------
# phase-loop unrolling
# ---------------------------------------------------------------------------


class _Renamer(ast.NodeTransformer):
    def __init__(self, renames: Dict[str, str]):
        self.renames = renames

    def visit_Name(self, node: ast.Name) -> ast.Name:
        new = self.renames.get(node.id)
        if new is not None:
            return ast.copy_location(ast.Name(id=new, ctx=node.ctx), node)
        return node


def _contains_comm(stmt: ast.stmt, rt_name: str, module_fns: Set[str]) -> bool:
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == rt_name
            and func.attr in (_COMM_METHODS | _COLLECTIVE_METHODS)
        ):
            return True
        if (
            isinstance(func, ast.Name)
            and func.id.startswith(_CALL_PREFIXES)
            and func.id in module_fns
        ):
            return True
    return False


def _eval_in_env(expr: ast.expr, eval_ns: Dict[str, object]):
    return eval(  # noqa: S307 - evaluating our own generated bounds
        compile(ast.Expression(copy.deepcopy(expr)), "<tg-bounds>", "eval"),
        dict(eval_ns),
    )


def _phase_loop(stmt: ast.stmt) -> Optional[Tuple[Optional[ast.expr], ast.For]]:
    """Match ``for v in range(...)`` optionally wrapped in one ``if``."""
    guard = None
    node = stmt
    if (
        isinstance(node, ast.If)
        and not node.orelse
        and len(node.body) == 1
        and isinstance(node.body[0], ast.For)
    ):
        guard = node.test
        node = node.body[0]
    if not isinstance(node, ast.For) or node.orelse:
        return None
    if not isinstance(node.target, ast.Name):
        return None
    call = node.iter
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
        and not call.keywords
        and 1 <= len(call.args) <= 3
    ):
        return None
    return guard, node


def _bufs_names(stmts: Sequence[ast.stmt]) -> Set[str]:
    names = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id.startswith("_bufs_"):
                names.add(node.id)
    return names


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------


@dataclass
class _Segment:
    """One per-rank work-unit instance (rank-independent description)."""

    code: str
    info: _SegInfo
    label: str
    template: int
    instance: int = 0
    kind: str = ""


class _PlanError(Exception):
    """Planning cannot proceed; the caller degrades to a trivial plan."""


def _inline_events(
    stmts: List[ast.stmt], fns: Dict[str, ast.FunctionDef], rt_name: str
) -> List[ast.stmt]:
    """Replace every ``_ev_*(rt, ...)`` call statement, at any nesting
    depth, by the callee's body statements — the same objects at every
    site, so the ``stmt_code`` cache of :func:`_build_segments` hits.

    Sharing is sound because the caller passes each parameter under its
    own name, so the inlined body reads the values the function would
    have received; the plan is then the inline emission's plan.  A call
    passing anything else raises :class:`_PlanError`.
    """
    out: List[ast.stmt] = []
    for stmt in stmts:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id.startswith("_ev_")
            and call.func.id in fns
        ):
            for block in ("body", "orelse"):
                if getattr(stmt, block, None):
                    setattr(stmt, block, _inline_events(
                        getattr(stmt, block), fns, rt_name
                    ))
            out.append(stmt)
            continue
        callee = fns[call.func.id]
        params = [arg.arg for arg in callee.args.args]
        passed = [getattr(arg, "id", None) for arg in call.args]
        if call.keywords or passed != params or params[:1] != [rt_name]:
            raise _PlanError(
                f"cannot inline {callee.name}: arguments "
                f"{passed} are not its parameters {params}"
            )
        out.extend(callee.body)
    return out


def _target_procedure(
    tree: ast.Module,
) -> Tuple[ast.FunctionDef, Dict[str, ast.FunctionDef], str]:
    fns = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    node_main = fns.get("node_main")
    if node_main is None:
        raise _PlanError("no node_main in module")
    body = [
        stmt
        for stmt in node_main.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
        and not (isinstance(stmt, ast.Return) and stmt.value is None)
    ]
    target = node_main
    if (
        len(body) == 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Call)
        and isinstance(body[0].value.func, ast.Name)
        and body[0].value.func.id in fns
    ):
        target = fns[body[0].value.func.id]
    if not target.args.args:
        raise _PlanError(f"{target.name} takes no runtime argument")
    rt_name = target.args.args[0].arg
    return target, fns, rt_name


def _build_segments(
    target: ast.FunctionDef,
    module_fns: Set[str],
    arrays: Set[str],
    rt_name: str,
    envs: Sequence[Dict[str, int]],
    eval_base: Dict[str, object],
    unroll_cap: int,
    notes: List[str],
) -> Tuple[List[_Segment], List[_SegInfo], List[Tuple[int, ...]], int]:
    """Segment the procedure body.

    Returns ``(segments, template_infos, loop_groups, loops_unrolled)``
    where ``loop_groups`` lists, per unrolled loop, the template ids of
    its body statements (for carried-edge construction).
    """

    def footprint(stmt: ast.stmt) -> _SegInfo:
        return _footprint(stmt, rt_name, module_fns, arrays)

    segments: List[_Segment] = []
    template_infos: List[_SegInfo] = []
    loop_groups: List[Tuple[int, ...]] = []
    loops_unrolled = 0

    def new_template(info: _SegInfo) -> int:
        template_infos.append(info)
        return len(template_infos) - 1

    # Unparse each distinct statement object once; instances re-parse
    # that text (fast C parser) and rename the fresh tree in place, which
    # avoids a deepcopy of large nest ASTs per unrolled iteration.  Keyed
    # by object identity (value pins the stmt so ids are never recycled):
    # unrolled instances share body statement objects, while synthesized
    # per-instance statements differ and must not share text.
    stmt_code: Dict[int, Tuple[ast.stmt, str]] = {}

    def emit(stmt: ast.stmt, info: _SegInfo, template: int,
             instance: int = 0,
             renames: Optional[Dict[str, str]] = None) -> None:
        cached = stmt_code.get(id(stmt))
        if cached is None:
            code = ast.unparse(stmt)
            stmt_code[id(stmt)] = (stmt, code)
        else:
            code = cached[1]
        if renames:
            tree = ast.parse(code)
            _Renamer(renames).visit(tree)
            code = ast.unparse(tree)
            info = _SegInfo(
                reads={renames.get(n, n) for n in info.reads},
                writes={renames.get(n, n) for n in info.writes},
                aug_only={renames.get(n, n) for n in info.aug_only},
                exposed={renames.get(n, n) for n in info.exposed},
                killed={renames.get(n, n) for n in info.killed},
                sends=info.sends, recvs=info.recvs,
                collectives=info.collectives,
                unknown_calls=info.unknown_calls,
                tags=set(info.tags), has_nest=info.has_nest,
            )
        segments.append(
            _Segment(
                code=code,
                info=info,
                label=code.split("\n", 1)[0][:48],
                template=template,
                instance=instance,
                kind=info.kind(),
            )
        )

    def emit_plain(stmt: ast.stmt) -> None:
        info = footprint(stmt)
        emit(stmt, info, new_template(info))

    def try_unroll(stmt: ast.stmt) -> bool:
        nonlocal loops_unrolled
        matched = _phase_loop(stmt)
        if matched is None:
            return False
        guard, loop = matched
        if not _contains_comm(loop, rt_name, module_fns):
            return False  # plain compute nest: one segment is right
        try:
            if guard is not None:
                verdicts = [
                    bool(_eval_in_env(guard, {**eval_base, "env": env, **env}))
                    for env in envs
                ]
                if len(set(verdicts)) != 1:
                    return False
                if not verdicts[0]:
                    return True  # guard statically false: emit nothing
            ranges = [
                list(range(*(
                    _eval_in_env(arg, {**eval_base, "env": env, **env})
                    for arg in loop.iter.args
                )))
                for env in envs
            ]
        except Exception:
            notes.append(f"phase loop {loop.target.id}: bounds not static")
            return False
        if any(r != ranges[0] for r in ranges[1:]):
            notes.append(f"phase loop {loop.target.id}: bounds differ by rank")
            return False
        trips = ranges[0]
        if not trips:
            return True
        if len(trips) > unroll_cap:
            notes.append(
                f"phase loop {loop.target.id}: {len(trips)} trips "
                f"> unroll cap {unroll_cap}"
            )
            return False
        # Per-iteration templates: one for the loop-variable binding,
        # one per top-level body statement.
        var = loop.target.id
        private = {var} | _bufs_names(loop.body)
        prologue_info = _SegInfo(writes={var})
        prologue_tmpl = new_template(prologue_info)
        body_infos = [footprint(s) for s in loop.body]
        body_tmpls = [new_template(info) for info in body_infos]
        loop_groups.append(tuple([prologue_tmpl] + body_tmpls))
        loops_unrolled += 1
        for k, value in enumerate(trips):
            renames = {name: f"{name}__tg{k}" for name in private}
            bound = ast.parse(f"{renames[var]} = {value!r}").body[0]
            emit(
                bound,
                _SegInfo(writes={renames[var]}),
                prologue_tmpl,
                instance=k,
            )
            for body_stmt, info, tmpl in zip(
                loop.body, body_infos, body_tmpls
            ):
                emit(body_stmt, info, tmpl, instance=k, renames=renames)
        return True

    for stmt in target.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        if isinstance(stmt, ast.Return):
            if stmt.value is not None and not (
                isinstance(stmt.value, ast.Constant)
                and stmt.value.value is None
            ):
                raise _PlanError("procedure returns a value")
            continue
        if isinstance(stmt, (ast.Global, ast.Nonlocal, ast.Import,
                             ast.ImportFrom, ast.FunctionDef,
                             ast.ClassDef, ast.With, ast.Try)):
            raise _PlanError(f"unsupported statement {type(stmt).__name__}")
        if try_unroll(stmt):
            continue
        emit_plain(stmt)
        if len(segments) > MAX_SEGMENTS_PER_RANK:
            raise _PlanError("segment count exceeds cap")

    if len(segments) > MAX_SEGMENTS_PER_RANK:
        raise _PlanError("segment count exceeds cap")
    return segments, template_infos, loop_groups, loops_unrolled


def _privatizable(infos: Sequence[_SegInfo]) -> FrozenSet[str]:
    """Names safe to ignore when ordering segments of one plan.

    A name is privatizable when no segment reads it upward-exposed:
    every segment that reads it definitely writes it first, so no value
    ever flows between segments through the name, and (rank execution
    being exclusive) the shared-namespace writes cannot race.  Loop
    indices and per-statement bound temporaries fall out of this —
    without it every compute nest conflicts with every other through the
    shared index variable and the plan degenerates to a chain.

    A whole-procedure call has an unknown footprint that may read
    anything exposed, so its presence disables privatization.
    """
    if any(info.unknown_calls for info in infos):
        return frozenset()
    accessed: Set[str] = set()
    exposed: Set[str] = set()
    for info in infos:
        accessed |= info.reads | info.writes
        exposed |= info.exposed
    return frozenset(accessed - exposed)


def _merge_plain_runs(
    segments: List[_Segment], private: FrozenSet[str]
) -> List[_Segment]:
    """Merge consecutive plain segments that would be chained anyway.

    Two adjacent segments merge when neither communicates and they either
    conflict (an edge would order them back-to-back regardless) or are
    both straight-line admin statements.  Merging only unions footprints,
    so it can only *add* conservatism, never lose an edge.
    """
    merged: List[_Segment] = []
    for seg in segments:
        if merged:
            prev = merged[-1]
            plain = (
                prev.kind in ("compute", "admin")
                and seg.kind in ("compute", "admin")
                and prev.instance == seg.instance
                and prev.template != seg.template
            )
            if plain and (
                _conflict_names(prev.info, seg.info, private)
                or not (prev.info.has_nest or seg.info.has_nest)
            ):
                info = prev.info.merged_with(seg.info)
                merged[-1] = _Segment(
                    code=prev.code + "\n" + seg.code,
                    info=info,
                    label=prev.label,
                    template=prev.template,
                    instance=prev.instance,
                    kind=info.kind(),
                )
                continue
        merged.append(seg)
    return merged


def build_task_plan(
    source: str,
    bindings: Sequence,
    dep_hints: Optional[Sequence[str]] = None,
    unroll_cap: Optional[int] = None,
) -> TaskPlan:
    """Plan one launch of ``source`` for the ranks in ``bindings``.

    ``dep_hints`` names arrays the integer-set analysis proved free of
    cross-statement same-element access pairs; conflicts between two
    compute templates through those names alone are dropped.  Always
    returns a plan — on any planning obstacle, the trivial
    one-unit-per-rank plan (which is exactly the ``threads`` execution
    shape) is returned with the reason in ``plan.notes``.
    """
    nprocs = len(bindings)
    if GENERATED_MARKER not in source.split("\n", 3)[0]:
        return trivial_plan(nprocs, "not a generated node program")
    try:
        return _build_segmented_plan(
            source, bindings, dep_hints or (), unroll_cap or DEFAULT_UNROLL_CAP
        )
    except _PlanError as exc:
        return trivial_plan(nprocs, str(exc))
    except SyntaxError as exc:
        return trivial_plan(nprocs, f"unparseable source: {exc}")


def _build_segmented_plan(
    source: str,
    bindings: Sequence,
    dep_hints: Sequence[str],
    unroll_cap: int,
) -> TaskPlan:
    nprocs = len(bindings)
    notes: List[str] = []
    tree = ast.parse(source)
    target, fns, rt_name = _target_procedure(tree)
    target.body = _inline_events(target.body, fns, rt_name)
    module_fns = set(fns)
    arrays = set(getattr(bindings[0], "array_shapes", {}) or {})
    envs = [dict(b.env) for b in bindings]

    # Helper functions (_cdiv, _align, ...) participate in loop bounds;
    # executing the module binds them (it only contains defs + imports).
    eval_base: Dict[str, object] = {}
    exec(compile(source, "<tg-module>", "exec"), eval_base)  # noqa: S102

    segments, template_infos, loop_groups, loops_unrolled = _build_segments(
        target, module_fns, arrays, rt_name, envs, eval_base,
        unroll_cap, notes,
    )
    # One privatization verdict covers both name pools: segment infos use
    # per-instance (renamed) names, template infos the original ones, and
    # a name is exempt only if *neither* pool exposes it.
    private = _privatizable(
        [seg.info for seg in segments] + list(template_infos)
    )
    segments = _merge_plain_runs(segments, private)
    if not segments:
        raise _PlanError("no executable segments")

    hinted = set(dep_hints)

    def hint_exempt(a: _Segment, b: _Segment, names: Set[str]) -> Set[str]:
        """Drop conflicts carried only by proven-independent arrays."""
        if not hinted or a.template == b.template:
            return names
        if a.kind not in ("compute", "admin") or b.kind not in (
            "compute", "admin"
        ):
            return names
        return names - hinted

    # -- intra-rank instance edges (identical for every rank) ---------------
    # Whole-procedure call units have an unknown footprint: they order
    # against *every* other segment of their rank, in program order.
    local_edges: List[Tuple[int, int]] = []
    n_seg = len(segments)
    for j in range(n_seg):
        seg_j = segments[j]
        for i in range(j):
            seg_i = segments[i]
            if seg_i.kind == "call" or seg_j.kind == "call":
                local_edges.append((i, j))
                continue
            names = _conflict_names(seg_i.info, seg_j.info, private)
            if hint_exempt(seg_i, seg_j, names):
                local_edges.append((i, j))
    # Collectives must execute in one global order; per-rank chaining of
    # consecutive collective units (usually implied by scalar conflicts
    # already) guarantees the rendezvous generations line up.
    last_blocking = -1
    for idx, seg in enumerate(segments):
        if seg.kind in ("collective", "mixed", "call"):
            if last_blocking >= 0:
                local_edges.append((last_blocking, idx))
            last_blocking = idx

    # -- template graph with carried edges; Tarjan condensation -------------
    n_tmpl = len(template_infos)
    tmpl_adj: List[Set[int]] = [set() for _ in range(n_tmpl)]
    order_of: Dict[int, int] = {}
    for seg in segments:
        order_of.setdefault(seg.template, len(order_of))
    ordered_tmpls = sorted(order_of, key=order_of.get)
    for jj, t_j in enumerate(ordered_tmpls):
        for t_i in ordered_tmpls[:jj]:
            if (
                template_infos[t_i].kind() == "call"
                or template_infos[t_j].kind() == "call"
                or _conflict_names(
                    template_infos[t_i], template_infos[t_j], private
                )
            ):
                tmpl_adj[t_i].add(t_j)
    private_prefixes = ("_bufs_",)
    for group in loop_groups:
        group_set = set(group)
        loop_vars = {
            next(iter(template_infos[t].writes))
            for t in group
            if len(template_infos[t].writes) == 1
            and not template_infos[t].reads
        }
        for t_i in group:
            for t_j in group:
                if t_j not in group_set:
                    continue
                if (
                    template_infos[t_i].kind() == "call"
                    or template_infos[t_j].kind() == "call"
                ):
                    tmpl_adj[t_i].add(t_j)
                    continue
                carried = {
                    name
                    for name in _conflict_names(
                        template_infos[t_i], template_infos[t_j], private
                    )
                    if name not in loop_vars
                    and not name.startswith(private_prefixes)
                }
                if carried:
                    tmpl_adj[t_i].add(t_j)
    comp_of, members, _ = condense(
        n_tmpl, [sorted(s) for s in tmpl_adj]
    )
    cycles = sum(1 for m in members if len(m) > 1)

    # -- materialize per-rank units -----------------------------------------
    units: List[TaskUnit] = []
    edges: Set[Tuple[int, int]] = set()
    for rank in range(nprocs):
        base = rank * n_seg
        for idx, seg in enumerate(segments):
            units.append(
                TaskUnit(
                    uid=base + idx,
                    rank=rank,
                    kind=seg.kind,
                    code=seg.code,
                    label=seg.label,
                    tag=seg.info.tag() if seg.kind in ("send", "recv") else "",
                    instance=seg.instance,
                    template=seg.template,
                    scc=comp_of[seg.template],
                )
            )
        for i, j in local_edges:
            edges.add((base + i, base + j))

    # -- cross-rank communication edges -------------------------------------
    senders: Dict[Tuple[str, int], List[int]] = {}
    receivers: Dict[Tuple[str, int], List[int]] = {}
    for unit in units:
        if not unit.tag:
            continue
        key = (unit.tag, unit.instance)
        if unit.kind == "send":
            senders.setdefault(key, []).append(unit.uid)
        elif unit.kind == "recv":
            receivers.setdefault(key, []).append(unit.uid)
    for key, recv_uids in receivers.items():
        send_uids = senders.get(key, ())
        for recv_uid in recv_uids:
            for send_uid in send_uids:
                if units[send_uid].rank != units[recv_uid].rank:
                    edges.add((send_uid, recv_uid))

    return TaskPlan(
        nprocs=nprocs,
        units=units,
        edges=sorted(edges),
        template_count=n_tmpl,
        scc_count=len(members),
        scc_members=[tuple(m) for m in members],
        cycles_collapsed=cycles,
        loops_unrolled=loops_unrolled,
        notes=notes,
    )
