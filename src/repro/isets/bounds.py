"""Bound extraction from conjuncts (used by enumeration and loop codegen).

``inequality_projection`` relaxes equalities into inequality pairs and runs
plain (real-shadow) Fourier–Motzkin to eliminate every variable except a
chosen kept set.  The result over-approximates the true projection, which is
safe for *bounds*: loop-nest generation re-checks exact membership with the
innermost constraints/guards, and point enumeration re-checks membership per
candidate.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..cache.manager import caches
from .constraint import EQ, GEQ, Constraint, ceil_div, floor_div
from .conjunct import Conjunct
from .linexpr import LinExpr
from .profile import gate


def relax_equalities(constraints: Iterable[Constraint]) -> List[Constraint]:
    """Replace each equality ``e == 0`` by ``e >= 0`` and ``-e >= 0``."""
    relaxed: List[Constraint] = []
    for constraint in constraints:
        if constraint.is_equality:
            relaxed.append(Constraint(constraint.expr, GEQ))
            relaxed.append(Constraint(-constraint.expr, GEQ))
        else:
            relaxed.append(constraint)
    return relaxed


def _fme_step(
    constraints: List[Constraint], var: str
) -> List[Constraint]:
    survivors: List[Constraint] = []
    lowers: List[Tuple[int, LinExpr]] = []
    uppers: List[Tuple[int, LinExpr]] = []
    for constraint in constraints:
        coeff = constraint.coeff(var)
        if coeff == 0:
            survivors.append(constraint)
        elif coeff > 0:
            lowers.append((coeff, -constraint.expr.substitute(var, 0)))
        else:
            uppers.append((-coeff, constraint.expr.substitute(var, 0)))
    for (b, beta), (a, alpha) in itertools.product(lowers, uppers):
        shadow = Constraint(alpha.scaled(b) - beta.scaled(a), GEQ)
        if not shadow.is_tautology():
            survivors.append(shadow)
    # Deduplicate to keep the constraint count in check.
    seen: Set[Constraint] = set()
    unique = []
    for constraint in survivors:
        if constraint not in seen:
            seen.add(constraint)
            unique.append(constraint)
    return unique


def inequality_projection(
    conjunct: Conjunct, keep: Set[str]
) -> List[Constraint]:
    """Relaxed FME projection keeping only variables in ``keep``.

    The returned inequalities mention only ``keep`` variables and are implied
    by the conjunct (an over-approximation of its projection).
    """
    constraints = relax_equalities(conjunct.constraints)
    victims = [v for v in conjunct.variables() if v not in keep]
    for var in victims:
        constraints = _fme_step(constraints, var)
    return constraints


class SymbolicBound:
    """A one-sided bound ``var >= ceil(expr / divisor)`` (or floor for ub)."""

    __slots__ = ("expr", "divisor", "is_lower")

    def __init__(self, expr: LinExpr, divisor: int, is_lower: bool):
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        self.expr = expr
        self.divisor = divisor
        self.is_lower = is_lower

    def ground_value(self) -> Optional[int]:
        if not self.expr.is_constant():
            return None
        if self.is_lower:
            return ceil_div(self.expr.constant, self.divisor)
        return floor_div(self.expr.constant, self.divisor)

    def evaluate(self, env: Dict[str, int]) -> int:
        value = self.expr.evaluate(env)
        if self.is_lower:
            return ceil_div(value, self.divisor)
        return floor_div(value, self.divisor)

    def __str__(self) -> str:
        func = "ceil" if self.is_lower else "floor"
        if self.divisor == 1:
            return str(self.expr)
        return f"{func}(({self.expr})/{self.divisor})"

    def __repr__(self) -> str:
        side = "lb" if self.is_lower else "ub"
        return f"SymbolicBound<{side}: {self}>"


def extract_bounds(
    constraints: Iterable[Constraint], var: str
) -> Tuple[List[SymbolicBound], List[SymbolicBound], List[Constraint]]:
    """Split constraints into lower bounds on ``var``, upper bounds, rest."""
    lowers: List[SymbolicBound] = []
    uppers: List[SymbolicBound] = []
    rest: List[Constraint] = []
    for constraint in constraints:
        coeff = constraint.coeff(var)
        if coeff == 0:
            rest.append(constraint)
            continue
        other = constraint.expr.substitute(var, 0)
        if constraint.is_equality:
            # coeff*var + other == 0: both a lower and an upper bound.
            if coeff > 0:
                lowers.append(SymbolicBound(-other, coeff, True))
                uppers.append(SymbolicBound(-other, coeff, False))
            else:
                lowers.append(SymbolicBound(other, -coeff, True))
                uppers.append(SymbolicBound(other, -coeff, False))
        elif coeff > 0:  # coeff*var >= -other
            lowers.append(SymbolicBound(-other, coeff, True))
        else:  # (-coeff)*var <= other
            uppers.append(SymbolicBound(other, -coeff, False))
    return lowers, uppers, rest


# ---------------------------------------------------------------------------
# Constraint-propagation presolve
# ---------------------------------------------------------------------------
#
# Iterative interval propagation over *multi-variable* constraints, the
# presolve discipline the MARS line of work (Ferry et al.) uses to keep
# exact-set pipelines tractable: for each constraint, bound one variable
# from the intervals of the others, to a fixpoint under a round cap and a
# per-conjunct work budget.  The propagated intervals are *implied* by the
# constraint system, so three sound uses follow:
#
# * a collapsed interval (``lo > hi``) proves the conjunct **empty**;
# * a width-0 interval **pins** its variable — the system implies
#   ``var == v``, so ``exists var: C  ==  C[var := v]`` exactly and the
#   variable can be substituted away without Fourier–Motzkin;
# * a constraint whose minimum over the interval box is ``>= 0`` is
#   **implied** by the system, so redundancy tests can drop it without an
#   emptiness query.
#
# All three are decision-level facts: using them on boolean paths
# (emptiness, redundancy) can never perturb a representation.  The pinning
# substitution is also used on the projection path (``eliminate_variable``),
# which *is* representation-carrying — `scripts/cache_roundtrip.py` gates
# that the six pinned benchmark artifacts stay byte-identical (DESIGN §14).

#: Fixpoint round cap: interval propagation tightens monotonically but a
#: chain like ``x <= y - 1, y <= x - 1`` only advances one unit per round,
#: so unbounded iteration could crawl.  Any cap is sound — intervals are
#: valid at every prefix of the fixpoint — and benchmark sweeps show the
#: useful tightenings land in the first two rounds (higher caps spend
#: their extra rounds crawling stride systems for no extra verdicts).
PRESOLVE_MAX_ROUNDS = 2

#: Per-conjunct work budget, counted in constraint-term visits across all
#: rounds.  A safety valve so one pathological conjunct cannot turn the
#: presolve itself into the hot spot; typical conjuncts (<= 64 constraints,
#: <= 8 variables) finish well under it.
PRESOLVE_WORK_BUDGET = 4096

#: Shared default for window lookups (avoids a tuple allocation per get).
_UNBOUNDED: Tuple[Optional[int], Optional[int]] = (None, None)

#: Memoized presolve verdicts, keyed on the exact constraint tuple.  The
#: same context conjunct is re-presolved by every redundancy query against
#: it, so the hit rate on compile workloads is very high.
_PRESOLVE = caches.register("isets.presolve", maxsize=100_000)


class PresolveResult:
    """Outcome of interval propagation over one constraint system.

    ``empty`` is a *sound* verdict: ``True`` only when the system provably
    has no integer solution (``reason`` says why: ``"gcd"`` for an
    indivisible equality, ``"interval"`` for a collapsed window or an
    unsatisfiable constraint over the window box).  ``intervals`` maps each
    variable to its implied ``(lo, hi)`` window (``None`` = unbounded on
    that side); ``pinned`` collects the width-0 windows.  ``multi`` is the
    tuple of multi-variable constraints (the corner-probe inputs);
    ``rounds`` and ``tightened`` count the propagation work done —
    surfaced as ``presolve.rounds`` / ``presolve.tightened``.
    ``form_lo``/``form_hi`` are the linear-form windows from the seed
    pass (canonical term-tuple -> bound), kept for the cross-system
    disjointness pretest (:func:`presolve_disjoint`).
    """

    __slots__ = (
        "empty", "reason", "intervals", "pinned", "multi",
        "rounds", "tightened", "form_lo", "form_hi",
    )

    def __init__(self, empty, reason, intervals, pinned, multi,
                 rounds, tightened, form_lo, form_hi):
        self.empty = empty
        self.reason = reason
        self.intervals = intervals
        self.pinned = pinned
        self.multi = multi
        self.rounds = rounds
        self.tightened = tightened
        self.form_lo = form_lo
        self.form_hi = form_hi


_EMPTY_DICT: Dict = {}


def _presolve_empty(reason: str, rounds: int, tightened: int
                    ) -> PresolveResult:
    return PresolveResult(
        True, reason, {}, {}, (), rounds, tightened,
        _EMPTY_DICT, _EMPTY_DICT,
    )


def presolve_constraints(
    constraints: Sequence[Constraint],
    max_rounds: int = PRESOLVE_MAX_ROUNDS,
    budget: int = PRESOLVE_WORK_BUDGET,
) -> PresolveResult:
    """Propagate integer intervals through a constraint system.

    Seed pass: single-variable constraints pin ``[lo, hi]`` windows (the
    GCD test fires via ``Constraint.is_false`` on the way).  Rounds: every
    multi-variable constraint ``sum(c_u * u) + k (>=|==) 0`` bounds each of
    its variables from the others' windows — with ``R`` the rest of the
    expression, ``c_v * v >= -R >= -R_max`` yields ``v >= ceil(-R_max /
    c_v)`` (and the mirrored forms), where ``R_max`` needs the upper window
    of positively- and the lower window of negatively-signed partners.
    Integer ceil/floor tightening is exact, so every derived window is
    implied by the system.
    """
    intervals: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
    multi: List[Constraint] = []
    tightened = 0

    for constraint in constraints:
        false, tautology, terms, const = constraint.classify()
        if false:
            return _presolve_empty("gcd", 0, tightened)
        if tautology:
            continue
        if len(terms) != 1:
            multi.append(constraint)
            continue
        (var, coeff), = terms
        lo, hi = intervals.get(var, _UNBOUNDED)
        if constraint.kind == EQ:
            # coeff*var + const == 0; construction divides the content out
            # when it divides const, so a remainder here means infeasible.
            if const % coeff:
                return _presolve_empty("gcd", 0, tightened)
            value = -const // coeff
            if (lo is not None and value < lo) or (
                hi is not None and value > hi
            ):
                return _presolve_empty("interval", 0, tightened)
            intervals[var] = (value, value)
        elif coeff > 0:
            new_lo = ceil_div(-const, coeff)
            if hi is not None and new_lo > hi:
                return _presolve_empty("interval", 0, tightened)
            intervals[var] = (
                new_lo if lo is None else max(lo, new_lo), hi
            )
        else:
            new_hi = floor_div(const, -coeff)
            if lo is not None and new_hi < lo:
                return _presolve_empty("interval", 0, tightened)
            intervals[var] = (
                lo, new_hi if hi is None else min(hi, new_hi)
            )

    # Form-pair check: constraints sharing a variable part (up to sign)
    # window the linear form ``e_T`` directly — ``e_T + k >= 0`` gives
    # ``e_T >= -k`` and ``-e_T + k' >= 0`` gives ``e_T <= k'``.  A crossed
    # form window (``lo > hi``) proves emptiness that interval propagation
    # can *never* see: the variable box stays consistent while the two
    # half-planes share no point (``i+j <= 10`` against ``i+j >= 13``
    # settles the box at ``i, j in [3, 7]`` and crawls forever).  This is
    # the multi-variable analogue of normalize's bound pairing, decided
    # here before any propagation or elimination machinery runs.
    form_lo: Dict[tuple, int] = {}
    form_hi: Dict[tuple, int] = {}
    for constraint in multi:
        _, _, terms, const = constraint.classify()
        if terms[0][1] > 0:
            canon = terms
            flipped = False
        else:
            canon = tuple((name, -coeff) for name, coeff in terms)
            flipped = True
        lo = form_lo.get(canon)
        hi = form_hi.get(canon)
        if constraint.kind == EQ:
            value = const if flipped else -const
            new_lo = value if lo is None else max(lo, value)
            new_hi = value if hi is None else min(hi, value)
        elif not flipped:
            new_lo = -const if lo is None else max(lo, -const)
            new_hi = hi
        else:
            new_lo = lo
            new_hi = const if hi is None else min(hi, const)
        if new_lo is not None and new_hi is not None and new_lo > new_hi:
            return _presolve_empty("form", 0, tightened)
        if new_lo is not None:
            form_lo[canon] = new_lo
        if new_hi is not None:
            form_hi[canon] = new_hi

    rounds = 0
    work = 0
    pending = multi
    exhausted = False
    while pending and rounds < max_rounds and not exhausted:
        rounds += 1
        changed_vars: Set[str] = set()
        for constraint in pending:
            _, _, terms, const = constraint.classify()
            work += len(terms)
            if work > budget:
                exhausted = True
                break
            is_eq = constraint.kind == EQ

            # max of the expression over the window box; one missing
            # partner window is tolerated (it can still be bounded *by*
            # the others).
            total_max = const
            free_max: Optional[str] = None
            max_ok = True
            for var, coeff in terms:
                lo, hi = intervals.get(var, _UNBOUNDED)
                bound = hi if coeff > 0 else lo
                if bound is None:
                    if free_max is None:
                        free_max = var
                    else:
                        max_ok = False
                        break
                else:
                    total_max += coeff * bound
            if max_ok:
                if free_max is None and total_max < 0:
                    return _presolve_empty("interval", rounds, tightened)
                # R_max for a variable = max over the *other* terms (+
                # const): subtract the variable's own contribution, or
                # take the partial sum when it was the single unbounded
                # one — in which case it is the only tightenable target.
                if free_max is not None:
                    targets = ((free_max, constraint.coeff(free_max)),)
                else:
                    targets = terms
                for var, coeff in targets:
                    lo, hi = intervals.get(var, _UNBOUNDED)
                    if free_max is None:
                        own = hi if coeff > 0 else lo
                        r_max = total_max - coeff * own
                    else:
                        r_max = total_max
                    if coeff > 0:
                        new_lo = ceil_div(-r_max, coeff)
                        if lo is None or new_lo > lo:
                            if hi is not None and new_lo > hi:
                                return _presolve_empty(
                                    "interval", rounds, tightened
                                )
                            intervals[var] = (new_lo, hi)
                            tightened += 1
                            changed_vars.add(var)
                    else:
                        new_hi = floor_div(r_max, -coeff)
                        if hi is None or new_hi < hi:
                            if lo is not None and new_hi < lo:
                                return _presolve_empty(
                                    "interval", rounds, tightened
                                )
                            intervals[var] = (lo, new_hi)
                            tightened += 1
                            changed_vars.add(var)

            if not is_eq:
                continue
            # Equalities bound both sides: c_v*v = -R with R >= R_min
            # gives the mirrored window edge.
            total_min = const
            free_min: Optional[str] = None
            min_ok = True
            for var, coeff in terms:
                lo, hi = intervals.get(var, _UNBOUNDED)
                bound = lo if coeff > 0 else hi
                if bound is None:
                    if free_min is None:
                        free_min = var
                    else:
                        min_ok = False
                        break
                else:
                    total_min += coeff * bound
            if not min_ok:
                continue
            if free_min is None and total_min > 0:
                return _presolve_empty("interval", rounds, tightened)
            if free_min is not None:
                targets = ((free_min, constraint.coeff(free_min)),)
            else:
                targets = terms
            for var, coeff in targets:
                lo, hi = intervals.get(var, _UNBOUNDED)
                if free_min is None:
                    own = lo if coeff > 0 else hi
                    r_min = total_min - coeff * own
                else:
                    r_min = total_min
                if coeff > 0:
                    new_hi = floor_div(-r_min, coeff)
                    if hi is None or new_hi < hi:
                        if lo is not None and new_hi < lo:
                            return _presolve_empty(
                                "interval", rounds, tightened
                            )
                        intervals[var] = (lo, new_hi)
                        tightened += 1
                        changed_vars.add(var)
                else:
                    # a*var >= R with a = -coeff > 0 and R >= r_min.
                    new_lo = ceil_div(r_min, -coeff)
                    if lo is None or new_lo > lo:
                        if hi is not None and new_lo > hi:
                            return _presolve_empty(
                                "interval", rounds, tightened
                            )
                        intervals[var] = (new_lo, hi)
                        tightened += 1
                        changed_vars.add(var)

        if not changed_vars or exhausted:
            break
        # Worklist: only constraints touching a just-changed variable can
        # tighten anything next round.
        pending = [
            c
            for c in multi
            if any(name in changed_vars for name, _ in c.expr.terms())
        ]

    pinned = {
        var: lo
        for var, (lo, hi) in intervals.items()
        if lo is not None and lo == hi
    }
    return PresolveResult(
        False, None, intervals, pinned, tuple(multi), rounds, tightened,
        form_lo, form_hi,
    )


def _slot_then_lru(conjunct: Conjunct, compute) -> PresolveResult:
    """Two-level memo of :func:`presolve_conjunct`: a slot on the conjunct
    itself (every redundancy query against a context re-presolves the same
    object; the slot avoids even hashing), then the shared LRU keyed on the
    constraint tuple alone — all the verdict reads (wildcard names
    participate via the constraints themselves)."""
    try:
        return conjunct._presolve
    except AttributeError:
        result = conjunct._presolve = _PRESOLVE.memoize(
            conjunct.constraints, compute
        )
        return result


def presolve_conjunct(conjunct: Conjunct) -> PresolveResult:
    """Memoized :func:`presolve_constraints` over a conjunct's system."""
    return gate(
        None,
        lambda: presolve_constraints(conjunct.constraints),
        memo=_slot_then_lru,
        key=conjunct,
    )


def presolve_disjoint(a: Conjunct, b: Conjunct) -> bool:
    """``True`` when ``a`` and ``b`` provably share no integer point.

    Compares the two conjuncts' propagated variable windows and linear-form
    windows: a variable (or form) that must be ``>= lo`` throughout ``a``
    but ``<= hi < lo`` throughout ``b`` separates the two systems.  Sound
    one-way (``False`` = unknown).  Wildcard variables are skipped — the
    same name denotes *different* quantified variables on each side —
    and forms mentioning them likewise.

    This is the pretest behind ``disjoint_subtract``'s identity fast path:
    pieces of a disjoint decomposition mostly cover disjoint index
    sub-domains, so ``a - b = a`` far more often than not, and proving it
    from two memoized presolves is orders of magnitude cheaper than the
    gist-and-negate machinery.
    """
    pa = presolve_conjunct(a)
    pb = presolve_conjunct(b)
    if pa.empty or pb.empty:
        return True
    skip = set(a.wildcards)
    skip.update(b.wildcards)
    b_intervals = pb.intervals
    for var, (lo, hi) in pa.intervals.items():
        if var in skip:
            continue
        blo, bhi = b_intervals.get(var, _UNBOUNDED)
        if blo is not None and hi is not None and blo > hi:
            return True
        if bhi is not None and lo is not None and lo > bhi:
            return True
    if pa.form_lo or pb.form_lo:
        for first, second in ((pa, pb), (pb, pa)):
            form_hi = second.form_hi
            if not form_hi:
                continue
            for canon, lo in first.form_lo.items():
                hi = form_hi.get(canon)
                if (
                    hi is not None
                    and lo > hi
                    and not any(name in skip for name, _ in canon)
                ):
                    return True
    return False


def interval_implied(
    intervals: Dict[str, Tuple[Optional[int], Optional[int]]],
    constraint: Constraint,
) -> bool:
    """``constraint`` holds everywhere on the interval box.

    The box contains every solution of the system the intervals came from,
    so ``True`` means the system implies the constraint — a sound O(terms)
    replacement for the emptiness-based implication test.  Equalities are
    never decided here (the box would have to collapse onto the hyperplane,
    which the pinning path handles better).
    """
    if constraint.kind != GEQ:
        return False
    total = constraint.expr.constant
    for var, coeff in constraint.expr.terms():
        lo, hi = intervals.get(var, (None, None))
        bound = lo if coeff > 0 else hi
        if bound is None:
            return False
        total += coeff * bound
    return total >= 0


def interval_width(
    intervals: Dict[str, Tuple[Optional[int], Optional[int]]],
    var: str,
) -> Optional[int]:
    """Propagated window width of ``var`` (``None`` when unbounded)."""
    lo, hi = intervals.get(var, (None, None))
    if lo is None or hi is None:
        return None
    return hi - lo


def ground_range(
    conjunct: Conjunct, var: str
) -> Tuple[Optional[int], Optional[int]]:
    """Concrete [lo, hi] range of ``var`` implied by the conjunct.

    All other variables are FME-eliminated first (relaxed projection), so
    stride witnesses and symbolic constants must already be substituted for
    the result to be ground.  Returns ``(None, None)`` when unbounded.
    """
    constraints = inequality_projection(conjunct, {var})
    lowers, uppers, _ = extract_bounds(constraints, var)
    lo: Optional[int] = None
    hi: Optional[int] = None
    for bound in lowers:
        value = bound.ground_value()
        if value is not None:
            lo = value if lo is None else max(lo, value)
    for bound in uppers:
        value = bound.ground_value()
        if value is not None:
            hi = value if hi is None else min(hi, value)
    return lo, hi
