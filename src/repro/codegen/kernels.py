"""Kernel vectorization: lowering innermost affine loop pieces to numpy
strided-slice statements.

This is the compute plane's analogue of the PR 2 section-descriptor data
plane.  :func:`try_emit_kernel_piece` is called by the SPMD emitter for
each disjoint loop piece when ``CompilerOptions(compute="kernels")``.  A
piece qualifies when

* the loop body is straight-line assignments with no communication
  events anchored inside it,
* the piece's iteration set reduces to a single stride-interval for the
  loop variable (stride equalities become the slice step; secondary
  stride guards and piece constraints not involving the loop variable
  hoist to a once-per-launch guard), and
* each statement's membership set is a single conjunct whose loop-var
  constraints fold into interval bounds — exactly the §5 membership
  guards, evaluated symbolically at compile time instead of per point.

Qualifying statements become one numpy strided-slice statement per
launch; recognized reductions lower to ``np.max``/``np.min``/``np.sum``
partials feeding the existing post-nest allreduce.  Statements that fail
qualification (membership guards that do not fold, non-unit subscript
coefficients, §3.4 buffer-access checks, unsupported operators) fall
back *per statement* to the scalar per-point loop.  Mixing vectorized
and scalar statements of one body is classic loop distribution, so it is
only done when the pairwise dependence check below proves the
reordering safe; otherwise the whole piece falls back to the scalar
nest.  Work accounting charges a vectorized statement once per kernel
launch (``weight * trip_count``) so the LogGP compute totals — and the
Figure 7 speedup shapes — are identical under both compute planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..isets import Conjunct, Constraint, IntegerSet, LinExpr, Space
from ..isets.ops import _pivot_wildcard
from ..lang import ast as L
from ..lang.affine import to_affine
from ..lang.errors import NonAffineSubscriptError
from .pyexpr import (
    emit_arange,
    emit_conjunct_guard,
    emit_constraint,
    emit_linexpr,
    emit_lower,
    emit_slice,
    emit_upper,
)

#: Intrinsics with an elementwise numpy equivalent that is bit-identical
#: (or ulp-identical, for the transcendentals) to the scalar-plane call.
_VEC_CALLS = {"abs": "np.abs", "sqrt": "np.sqrt", "exp": "np.exp"}
_VEC_CALLS_2 = {"mod": "np.mod", "max": "np.maximum", "min": "np.minimum"}
_VEC_BINOPS = {"+", "-", "*", "/"}


class _Disqualify(Exception):
    """A statement (or piece) cannot be vectorized; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class _Ref:
    """One array reference with affine subscripts (``None`` = unknown)."""

    array: str
    subs: Optional[Tuple[LinExpr, ...]]
    is_write: bool


@dataclass
class _StmtPlan:
    stmt: L.Assign
    status: str  # 'vectorized' | 'scalar' | 'empty'
    reason: str = ""
    guard_text: str = ""  # hoisted launch-time membership guard
    extra_lowers: List[str] = field(default_factory=list)
    extra_uppers: List[str] = field(default_factory=list)
    lo_name: str = ""
    hi_name: str = ""
    line: str = ""
    work_line: str = ""


# ---------------------------------------------------------------------------
# Expression walks
# ---------------------------------------------------------------------------

def _mentions_var(expr: L.Expr, var: str) -> bool:
    if isinstance(expr, L.Name):
        return expr.ident == var
    if isinstance(expr, L.ArrayRef):
        return any(_mentions_var(s, var) for s in expr.subscripts)
    if isinstance(expr, L.BinOp):
        return _mentions_var(expr.left, var) or _mentions_var(expr.right, var)
    if isinstance(expr, L.UnOp):
        return _mentions_var(expr.operand, var)
    if isinstance(expr, L.Call):
        return any(_mentions_var(a, var) for a in expr.args)
    return False


def _scalar_names(expr: L.Expr, out: set) -> None:
    if isinstance(expr, L.Name):
        out.add(expr.ident)
    elif isinstance(expr, L.ArrayRef):
        for sub in expr.subscripts:
            _scalar_names(sub, out)
    elif isinstance(expr, L.BinOp):
        _scalar_names(expr.left, out)
        _scalar_names(expr.right, out)
    elif isinstance(expr, L.UnOp):
        _scalar_names(expr.operand, out)
    elif isinstance(expr, L.Call):
        for arg in expr.args:
            _scalar_names(arg, out)


def _make_ref(ref: L.ArrayRef, is_write: bool) -> _Ref:
    try:
        subs = tuple(to_affine(s) for s in ref.subscripts)
    except NonAffineSubscriptError:
        subs = None
    return _Ref(ref.array, subs, is_write)


def _collect_refs(expr: L.Expr, out: List[_Ref]) -> None:
    if isinstance(expr, L.ArrayRef):
        out.append(_make_ref(expr, is_write=False))
        for sub in expr.subscripts:
            _collect_refs(sub, out)
    elif isinstance(expr, L.BinOp):
        _collect_refs(expr.left, out)
        _collect_refs(expr.right, out)
    elif isinstance(expr, L.UnOp):
        _collect_refs(expr.operand, out)
    elif isinstance(expr, L.Call):
        for arg in expr.args:
            _collect_refs(arg, out)


# ---------------------------------------------------------------------------
# Dependence analysis
# ---------------------------------------------------------------------------

def _pair_safe(
    a: _Ref, b: _Ref, var: str, stride: int, same_stmt: bool
) -> Tuple[bool, str]:
    """Is it safe to run all instances of ``a`` before all of ``b``?

    ``a`` is the earlier access in scalar program order (for
    ``same_stmt`` the statement's write, with ``b`` one of its reads —
    numpy evaluates the full RHS before assigning, which reorders the
    read of iteration *j* before writes of iterations *i < j*).  A
    conflict needs both refs to hit the same element with an iteration
    distance ``d = i_a - i_b`` that is a multiple of the loop stride;
    vectorization is unsafe exactly when such a distance exists with
    ``d < 0`` (same statement: a read observing an earlier iteration's
    write) or ``d > 0`` (cross statement: the later statement's instance
    preceding an earlier statement's instance in scalar order).
    """
    if a.subs is None or b.subs is None:
        return False, f"non-affine subscript on array {a.array}"
    if len(a.subs) != len(b.subs):
        return False, f"rank mismatch on array {a.array}"
    dists: List[int] = []
    for sa, sb in zip(a.subs, b.subs):
        ca, cb = sa.coeff(var), sb.coeff(var)
        if ca == 0 and cb == 0:
            diff = sb - sa
            if diff.is_constant() and diff.constant != 0:
                return True, ""  # provably disjoint in this dim
            # Equal, or symbolically unknown: no distance constraint.
            continue
        if ca != cb:
            return False, (
                f"mismatched loop-var subscript structure on {a.array}"
            )
        diff = sb - sa
        if not diff.is_constant():
            return False, (
                f"non-constant subscript difference on {a.array}"
            )
        if diff.constant % ca != 0:
            return True, ""  # fractional iteration distance: no conflict
        dists.append(diff.constant // ca)
    if len(set(dists)) > 1:
        return True, ""  # inconsistent distances across dims: no conflict
    if not dists:
        return False, f"loop-invariant conflict on array {a.array}"
    dist = dists[0]
    if dist % stride != 0:
        return True, ""  # off the iteration lattice (e.g. red-black)
    if same_stmt:
        ok = dist >= 0
    else:
        ok = dist <= 0
    if ok:
        return True, ""
    return False, (
        f"loop-carried dependence on {a.array} (distance {dist})"
    )


# ---------------------------------------------------------------------------
# Membership-guard folding
# ---------------------------------------------------------------------------

def _fold_statement_guard(be, cp, var, piece_conjunct, prefix_vars):
    """Fold a statement's membership set into launch guards and bounds.

    Returns ``(guard_terms, extra_lowers, extra_uppers)`` — all texts
    free of ``var`` except the extra bounds, which tighten the kernel's
    slice interval — or ``None`` when the set is empty (the statement
    never executes in this piece).  Raises :class:`_Disqualify` when the
    set does not fold (disjunctions, equalities pinning the loop var,
    stride residues on the loop var, unpivotable wildcards).
    """
    if be._skip_guard is cp:
        return [], [], []
    if cp.replicated or not cp.iter_dims:
        return [], [], []
    iters = cp.local_iterations
    restrict = be._section_restrict
    if restrict is not None:
        iters = iters.intersect(restrict)
    simplified = iters.simplify()
    if not simplified.conjuncts:
        return None
    # The kernel launch only covers the current piece, so membership may
    # be decided piece-wise.  A membership set covering the whole piece
    # (the common case: the loop's active set *is* this statement's) and
    # a disjunctive union (cyclic(k) block structure) both reduce against
    # the piece exactly; the per-point §5 guard disappears from the
    # launch entirely.
    piece_set = None
    if simplified.space.in_dims == tuple(prefix_vars):
        piece_set = IntegerSet(Space(tuple(prefix_vars)), [piece_conjunct])
        try:
            if piece_set.is_subset(simplified):
                return [], [], []
        except Exception:
            piece_set = None
    if len(simplified.conjuncts) > 1:
        narrowed = None
        if piece_set is not None:
            try:
                narrowed = simplified.intersect(piece_set).simplify()
            except Exception:
                narrowed = None
        if narrowed is None or len(narrowed.conjuncts) > 1:
            raise _Disqualify("disjunctive membership set")
        if not narrowed.conjuncts:
            return None
        simplified = narrowed
    conjunct = simplified.conjuncts[0]
    prepared = conjunct
    try:
        for wildcard in conjunct.wildcards:
            prepared = _pivot_wildcard(prepared, wildcard)
    except Exception:
        raise _Disqualify("membership wildcards not in stride form")
    guard_terms: List[str] = []
    extra_lowers: List[str] = []
    extra_uppers: List[str] = []
    for constraint in prepared.constraints:
        wilds = [w for w in prepared.wildcards if constraint.coeff(w)]
        if wilds:
            if len(wilds) > 1 or not constraint.is_equality:
                raise _Disqualify("membership wildcards not in stride form")
            wildcard = wilds[0]
            modulus = abs(constraint.coeff(wildcard))
            base = constraint.expr.substitute(wildcard, 0)
            if constraint.coeff(wildcard) > 0:
                base = -base
            if base.coeff(var):
                raise _Disqualify("stride residue on the loop var")
            # Canonical residue representative — keeps emission independent
            # of the solver's congruent form (see spmd._detect_strides).
            base = base.reduced_mod(modulus)
            guard_terms.append(
                f"{emit_linexpr(base, be.rename)} % {modulus} == 0"
            )
            continue
        coeff = constraint.expr.coeff(var)
        if coeff == 0:
            guard_terms.append(emit_constraint(constraint, be.rename))
        elif constraint.is_equality:
            raise _Disqualify("equality pins the loop var")
        else:
            rest = constraint.expr.substitute(var, 0)
            if coeff > 0:
                # coeff*var + rest >= 0  =>  var >= ceil(-rest / coeff)
                text = emit_linexpr(-rest, be.rename)
                if coeff != 1:
                    text = f"_cdiv({text}, {coeff})"
                extra_lowers.append(text)
            else:
                # coeff*var + rest >= 0  =>  var <= floor(rest / -coeff)
                text = emit_linexpr(rest, be.rename)
                if coeff != -1:
                    text = f"_fdiv({text}, {-coeff})"
                extra_uppers.append(text)
    return guard_terms, extra_lowers, extra_uppers


# ---------------------------------------------------------------------------
# Vector expression emission
# ---------------------------------------------------------------------------

class _VecBuilder:
    """Builds the numpy text of one statement's slice expressions."""

    def __init__(self, be, var: str, stride: int, lo: str, hi: str):
        self.be = be
        self.var = var
        self.stride = stride
        self.lo = lo
        self.hi = hi

    def slice_ref(self, ref: L.ArrayRef) -> str:
        lbs = self.be.emitter.array_lbounds(ref.array)
        try:
            subs = [to_affine(s) for s in ref.subscripts]
        except NonAffineSubscriptError as exc:
            raise _Disqualify(f"non-affine subscript: {exc}")
        parts = []
        var_dims = 0
        for sub, lb in zip(subs, lbs):
            coeff = sub.coeff(self.var)
            if coeff == 0:
                parts.append(
                    f"({emit_linexpr(sub - lb, self.be.rename)})"
                )
            elif coeff == 1:
                var_dims += 1
                offset = emit_linexpr(
                    sub.substitute(self.var, 0) - lb, self.be.rename
                )
                parts.append(
                    emit_slice(self.lo, self.hi, offset, self.stride)
                )
            else:
                raise _Disqualify(
                    f"non-unit subscript coefficient on {ref.array}"
                )
        if var_dims > 1:
            raise _Disqualify(f"loop var in several dims of {ref.array}")
        return f"{ref.array}[{', '.join(parts)}]", var_dims == 1

    def vec(self, expr: L.Expr) -> Tuple[str, bool]:
        """(text, is_vector) for one RHS subtree."""
        if not _mentions_var(expr, self.var):
            # Loop-invariant subtree: reuse the scalar plane's emission
            # verbatim so values are computed identically.
            return self.be._expr(expr), False
        if isinstance(expr, L.Name):  # the loop variable as a value
            return emit_arange(self.lo, self.hi, self.stride), True
        if isinstance(expr, L.ArrayRef):
            text, is_vec = self.slice_ref(expr)
            return text, is_vec
        if isinstance(expr, L.BinOp):
            if expr.op not in _VEC_BINOPS:
                raise _Disqualify(f"operator {expr.op!r} not vectorizable")
            left, lv = self.vec(expr.left)
            right, rv = self.vec(expr.right)
            return f"({left} {expr.op} {right})", lv or rv
        if isinstance(expr, L.UnOp):
            if expr.op != "-":
                raise _Disqualify(f"operator {expr.op!r} not vectorizable")
            text, is_vec = self.vec(expr.operand)
            return f"(-{text})", is_vec
        if isinstance(expr, L.Call):
            if expr.func in _VEC_CALLS and len(expr.args) == 1:
                func = _VEC_CALLS[expr.func]
            elif expr.func in _VEC_CALLS_2 and len(expr.args) == 2:
                func = _VEC_CALLS_2[expr.func]
            else:
                raise _Disqualify(
                    f"call {expr.func}/{len(expr.args)} not vectorizable"
                )
            pieces = [self.vec(a) for a in expr.args]
            args = ", ".join(text for text, _ in pieces)
            return f"{func}({args})", any(v for _, v in pieces)
        raise _Disqualify(f"cannot vectorize {expr!r}")


# ---------------------------------------------------------------------------
# Per-statement planning
# ---------------------------------------------------------------------------

def _count_text(lo: str, hi: str, stride: int) -> str:
    if stride == 1:
        return f"({hi} - {lo} + 1)"
    return f"(({hi} - {lo}) // {stride} + 1)"


def _plan_statement(
    be, stmt, cp, var, stride, kid, sid, lo_name, hi_name, piece,
    prefix_vars,
):
    from .spmd import _weight

    checks = be._buffer_checks_for(stmt)
    if checks:
        raise _Disqualify("buffer-access checks (§3.4 direct mode)")
    folded = _fold_statement_guard(be, cp, var, piece, prefix_vars)
    if folded is None:
        return _StmtPlan(stmt, "empty", "empty membership set")
    guard_terms, extra_lowers, extra_uppers = folded
    if extra_lowers or extra_uppers:
        slo, shi = f"_kl{kid}_{sid}", f"_ku{kid}_{sid}"
    else:
        slo, shi = lo_name, hi_name
    builder = _VecBuilder(be, var, stride, slo, shi)
    weight = max(1, _weight(stmt.rhs))

    if isinstance(stmt.lhs, L.ArrayRef):
        target, has_var = builder.slice_ref(stmt.lhs)
        if not has_var:
            raise _Disqualify("loop var absent from the write subscripts")
        value, _ = builder.vec(stmt.rhs)
        line = f"{target} = {value}"
    else:
        line = _plan_reduction(be, stmt, cp, builder)

    # Same-statement dependence: numpy reads the whole RHS first.
    if isinstance(stmt.lhs, L.ArrayRef):
        write = _make_ref(stmt.lhs, is_write=True)
        reads: List[_Ref] = []
        _collect_refs(stmt.rhs, reads)
        for sub in stmt.lhs.subscripts:
            _collect_refs(sub, reads)
        for read in reads:
            if read.array != write.array:
                continue
            ok, why = _pair_safe(write, read, var, stride, same_stmt=True)
            if not ok:
                raise _Disqualify(why)

    work_line = (
        f"{be._work_var}[2] += {weight} * {_count_text(slo, shi, stride)}"
    )
    guard_text = " and ".join(guard_terms)
    return _StmtPlan(
        stmt, "vectorized", "",
        guard_text=guard_text,
        extra_lowers=extra_lowers,
        extra_uppers=extra_uppers,
        lo_name=slo,
        hi_name=shi,
        line=line,
        work_line=work_line,
    )


def _plan_reduction(be, stmt, cp, builder) -> str:
    """Lower ``s = op(s, e)`` / ``s = s ± e`` to a numpy partial."""
    target = stmt.lhs.ident
    op = cp.reduction
    if op is None:
        raise _Disqualify("scalar assignment without a recognized reduction")
    rhs = stmt.rhs

    def is_target(expr: L.Expr) -> bool:
        return isinstance(expr, L.Name) and expr.ident == target

    if op in ("max", "min"):
        if (
            not isinstance(rhs, L.Call)
            or rhs.func != op
            or len(rhs.args) != 2
        ):
            raise _Disqualify(f"unrecognized {op} reduction shape")
        if is_target(rhs.args[0]):
            vec_expr = rhs.args[1]
        elif is_target(rhs.args[1]):
            vec_expr = rhs.args[0]
        else:
            raise _Disqualify(f"unrecognized {op} reduction shape")
        text, is_vec = builder.vec(vec_expr)
        if not is_vec:
            raise _Disqualify("loop-invariant reduction operand")
        red = "np.max" if op == "max" else "np.min"
        return f"S[{target!r}] = {op}(S[{target!r}], float({red}({text})))"
    if op == "+":
        if not isinstance(rhs, L.BinOp) or rhs.op not in ("+", "-"):
            raise _Disqualify("unrecognized sum reduction shape")
        if rhs.op == "+" and is_target(rhs.left):
            vec_expr, sign = rhs.right, "+"
        elif rhs.op == "+" and is_target(rhs.right):
            vec_expr, sign = rhs.left, "+"
        elif rhs.op == "-" and is_target(rhs.left):
            vec_expr, sign = rhs.right, "-"
        else:
            raise _Disqualify("unrecognized sum reduction shape")
        text, is_vec = builder.vec(vec_expr)
        if not is_vec:
            raise _Disqualify("loop-invariant reduction operand")
        return (
            f"S[{target!r}] = S[{target!r}] {sign} float(np.sum({text}))"
        )
    raise _Disqualify(f"reduction {op!r} not vectorizable")


# ---------------------------------------------------------------------------
# Piece entry point
# ---------------------------------------------------------------------------

def try_emit_kernel_piece(be, do, conjunct, prefix_vars, loop_path) -> bool:
    """Emit one disjoint loop piece as numpy kernels; False = use the
    scalar nest.  ``be`` is the :class:`~repro.codegen.spmd._BodyEmitter`
    positioned at the piece (rename map, section restriction, and
    skip-guard state all active)."""
    from .spmd import _var_bounds

    emitter = be.emitter
    var = do.var
    report = emitter.kernel_report

    def bail(reason: str) -> bool:
        report.append((do.stmt_id, var, "piece-scalar", reason))
        return False

    stmts = list(do.body)
    if not stmts or not all(isinstance(s, L.Assign) for s in stmts):
        return bail("body is not straight-line assignments")
    if be._events_under(do):
        return bail("communication events inside the nest")
    cps = []
    for stmt in stmts:
        cp = be.analysis.cps.get(stmt.stmt_id)
        if cp is None:
            return bail("statement without CP info")
        cps.append(cp)

    lowers, uppers, stride, base, mods = _var_bounds(
        conjunct, var, prefix_vars
    )
    if not lowers or not uppers:
        return bail("unbounded piece")
    launch_terms: List[str] = []
    for expr, modulus in mods:
        if expr.coeff(var):
            return bail("secondary stride guard involves the loop var")
        launch_terms.append(
            f"({emit_linexpr(expr, be.rename)}) % {modulus} == 0"
        )

    # Piece-level guard constraints (same split as the scalar path).
    guard_constraints = [
        c for c in conjunct.constraints if c.coeff(var) == 0
    ]
    var_wildcards = {
        w
        for w in conjunct.wildcards
        if any(c.coeff(w) for c in conjunct.constraints if c.coeff(var))
    }
    shared = [
        w
        for w in conjunct.wildcards
        if w in var_wildcards
        and any(c.coeff(w) for c in guard_constraints)
    ]
    if shared:
        # A stride witness couples guard constraints to the loop var
        # (red-black: ``0 <= a`` and ``n >= 2a + 3`` with ``i = 2a + 2``).
        # The launch we emit replaces those with the projected bounds +
        # stride + mods; rebuild that launch set and require it to sit
        # inside the piece — then the coupled constraints are already
        # enforced by the bounds and can be dropped from the guard.
        kept_guards = [
            c
            for c in guard_constraints
            if not any(c.coeff(w) for w in shared)
        ]
        launch_constraints = list(kept_guards)
        launch_wildcards = [
            w
            for w in conjunct.wildcards
            if w not in shared and any(c.coeff(w) for c in kept_guards)
        ]
        for b in lowers:
            launch_constraints.append(
                Constraint.geq(LinExpr.var(var) * b.divisor - b.expr)
            )
        for b in uppers:
            launch_constraints.append(
                Constraint.geq(b.expr - LinExpr.var(var) * b.divisor)
            )
        fresh = 0
        if stride > 1 and base is not None:
            witness = f"k$launch{fresh}"
            fresh += 1
            launch_wildcards.append(witness)
            launch_constraints.append(
                Constraint.eq(
                    LinExpr.var(var) - base - LinExpr.var(witness) * stride
                )
            )
        for expr, modulus in mods:
            witness = f"k$launch{fresh}"
            fresh += 1
            launch_wildcards.append(witness)
            launch_constraints.append(
                Constraint.eq(expr - LinExpr.var(witness) * modulus)
            )
        space = Space(tuple(prefix_vars))
        try:
            exact = IntegerSet(
                space,
                [Conjunct(launch_constraints, tuple(launch_wildcards))],
            ).is_subset(IntegerSet(space, [conjunct]))
        except Exception:
            exact = False
        if not exact:
            return bail("wildcard couples the piece guard to the loop var")
        guard_constraints = kept_guards
    if guard_constraints:
        guard_wildcards = [
            w
            for w in conjunct.wildcards
            if any(c.coeff(w) for c in guard_constraints)
        ]
        guard_conjunct = Conjunct(guard_constraints, guard_wildcards)
        guard_text = emit_conjunct_guard(guard_conjunct, be.rename)
        if guard_text is None:
            index = emitter.register_fallback(
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
            launch_terms.append(f"({guard_text})")

    # Scalars assigned in the body must not be read by other statements
    # (per-point interleaving would be observable).
    assigned_scalars = {
        s.lhs.ident for s in stmts if isinstance(s.lhs, L.Name)
    }
    if assigned_scalars:
        for stmt in stmts:
            allowed = (
                stmt.lhs.ident if isinstance(stmt.lhs, L.Name) else None
            )
            names: set = set()
            _scalar_names(stmt.rhs, names)
            clashing = (assigned_scalars & names) - {allowed}
            if clashing:
                return bail(
                    f"scalar(s) {sorted(clashing)} assigned and read "
                    f"in the nest"
                )

    # Cross-statement dependences: emitting statement k's full launch
    # before statement k+1's (vectorized or distributed scalar loop) is
    # a reordering that every same-array pair must tolerate.
    refs_by_stmt: List[List[_Ref]] = []
    for stmt in stmts:
        refs: List[_Ref] = []
        if isinstance(stmt.lhs, L.ArrayRef):
            refs.append(_make_ref(stmt.lhs, is_write=True))
            for sub in stmt.lhs.subscripts:
                _collect_refs(sub, refs)
        _collect_refs(stmt.rhs, refs)
        refs_by_stmt.append(refs)
    for i in range(len(stmts)):
        for j in range(i + 1, len(stmts)):
            for a in refs_by_stmt[i]:
                for b in refs_by_stmt[j]:
                    if a.array != b.array:
                        continue
                    if not (a.is_write or b.is_write):
                        continue
                    ok, why = _pair_safe(
                        a, b, var, stride, same_stmt=False
                    )
                    if not ok:
                        return bail(why)

    kid = next(emitter._kernel_counter)
    lo_name, hi_name = f"_kl{kid}", f"_ku{kid}"
    plans: List[_StmtPlan] = []
    any_vec = False
    for sid, (stmt, cp) in enumerate(zip(stmts, cps)):
        try:
            plan = _plan_statement(
                be, stmt, cp, var, stride, kid, sid, lo_name, hi_name,
                conjunct, prefix_vars,
            )
            any_vec = any_vec or plan.status == "vectorized"
        except _Disqualify as disq:
            plan = _StmtPlan(stmt, "scalar", disq.reason)
        plans.append(plan)
    for plan in plans:
        report.append(
            (plan.stmt.stmt_id, var, plan.status, plan.reason)
        )
    if not any_vec:
        report.append((do.stmt_id, var, "piece-scalar", "no statement qualified"))
        return False

    # ----------------------------------------------------------- emission
    w = be.w
    summary = "+".join(p.status for p in plans)
    w.line(f"# kernel piece over {var} [{summary}]")
    opened = 0
    if launch_terms:
        w.line(f"if {' and '.join(launch_terms)}:")
        w.push()
        opened += 1
    lower = emit_lower(lowers, be.rename)
    upper = emit_upper(uppers, be.rename)
    if stride > 1:
        base_text = emit_linexpr(base, be.rename)
        w.line(f"{lo_name} = _align({lower}, {base_text}, {stride})")
    else:
        w.line(f"{lo_name} = {lower}")
    w.line(f"{hi_name} = {upper}")
    w.line(f"if {lo_name} <= {hi_name}:")
    w.push()
    opened += 1
    step_text = f", {stride}" if stride > 1 else ""
    for plan in plans:
        if plan.status == "empty":
            continue
        if plan.status == "scalar":
            # Per-statement fallback: the statement keeps its exact
            # membership guard inside its own (distributed) scalar loop.
            w.line(
                f"for {var} in range({lo_name}, {hi_name} + 1"
                f"{step_text}):"
            )
            w.push()
            be.open_loops.append(var)
            be.rename[f"{var}_cur"] = var
            be._emit_assign(plan.stmt, loop_path + [do])
            be.rename.pop(f"{var}_cur", None)
            be.open_loops.pop()
            w.pop()
            continue
        inner = 0
        if plan.guard_text:
            w.line(f"if {plan.guard_text}:")
            w.push()
            inner += 1
        if plan.extra_lowers or plan.extra_uppers:
            slo, shi = plan.lo_name, plan.hi_name
            if plan.extra_lowers:
                extras = ", ".join(plan.extra_lowers)
                w.line(f"{slo} = max({lo_name}, {extras})")
                if stride > 1:
                    w.line(f"{slo} = _align({slo}, {lo_name}, {stride})")
            else:
                w.line(f"{slo} = {lo_name}")
            if plan.extra_uppers:
                extras = ", ".join(plan.extra_uppers)
                w.line(f"{shi} = min({hi_name}, {extras})")
            else:
                w.line(f"{shi} = {hi_name}")
            w.line(f"if {slo} <= {shi}:")
            w.push()
            inner += 1
        w.line(plan.line)
        w.line(plan.work_line)
        for _ in range(inner):
            w.pop()
    for _ in range(opened):
        w.pop()
    return True
