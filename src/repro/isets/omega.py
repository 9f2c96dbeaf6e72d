"""Core Omega-test algorithms: equality solving, exact projection, emptiness.

This module implements, over :class:`~repro.isets.conjunct.Conjunct`:

* **Equality elimination** in the style of Pugh's Omega test — unit-coefficient
  substitution plus the symmetric-modulus substitution that shrinks
  coefficients until a wildcard can be substituted away exactly.
* **Fourier–Motzkin elimination with integer exactness**: the real shadow is
  used when exact (one of each bound pair has a unit coefficient); otherwise
  the result is the *dark shadow* unioned with the standard *splinter*
  equalities, which is Pugh's exact integer projection.
* **Emptiness testing** by exact elimination of all variables.

These are the algorithms the paper relies on via the Omega library
(references [17] and [25] in the paper).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cache.manager import caches
from .bounds import interval_implied, interval_width, presolve_conjunct
from .constraint import EQ, GEQ, Constraint, ceil_div, floor_div
from .conjunct import Conjunct
from .errors import InexactOperationError
from .linexpr import LinExpr
from .profile import gate, presolve_on, record_event
from .space import fresh_name

# Safety valve: exact projection of pathological conjuncts can splinter; the
# paper reports such cases do not arise in practice for compiler-generated
# sets, and we keep a generous cap so a genuine pathology fails loudly.
MAX_SPLINTERS = 512
_MAX_EQ_ITERATIONS = 200

# Memoization of the pure conjunct-level operations (see repro.cache).
# Emptiness is keyed alpha-canonically (a bool cannot observe wildcard
# names); every other cache is keyed on the *exact* structure — constraint
# order and wildcard names included — so a hit replays the byte-identical
# result a fresh computation would produce.
_EMPTINESS = caches.register("isets.emptiness", maxsize=200_000)
_NORMALIZE = caches.register("isets.normalize", maxsize=100_000)
_REDUNDANCY = caches.register("isets.redundancy", maxsize=100_000)
_PROJECTION = caches.register("isets.projection", maxsize=50_000)


def _constraint_count(result: Optional[Conjunct]) -> int:
    return 0 if result is None else len(result.constraints)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize(conjunct: Conjunct) -> Optional[Conjunct]:
    """Drop tautologies and duplicates; detect structural falsity.

    Also pairs ``e >= 0`` with ``-e >= 0`` into the equality ``e == 0``, and
    detects single-variable contradictions (``x >= a`` with ``x <= a - 1``).
    Returns ``None`` when the conjunct is unsatisfiable on structural
    grounds.
    """
    return gate(
        "normalize",
        lambda: _normalize_uncached(conjunct),
        len(conjunct.constraints),
        _constraint_count,
        memo=_NORMALIZE.memoize,
        key=conjunct.exact_key(),
    )


def _normalize_uncached(conjunct: Conjunct) -> Optional[Conjunct]:
    seen: Set[Constraint] = set()
    result: List[Constraint] = []
    for constraint in conjunct.constraints:
        false, tautology, _, _ = constraint.classify()
        if false:
            return None
        if tautology or constraint in seen:
            continue
        seen.add(constraint)
        result.append(constraint)

    # Pair e >= 0 with -e - k >= 0 (k >= 0): implies -k >= e >= 0.  The
    # partner scan is indexed by variable part (the per-pair LinExpr
    # construction used to be quadratic and dominated normalize).
    by_part: Dict[tuple, List[int]] = {}
    geq_info: List[Optional[Tuple[tuple, tuple]]] = []
    for index, constraint in enumerate(result):
        if constraint.kind != GEQ:
            geq_info.append(None)
            continue
        terms = constraint.expr.terms()
        negated = tuple((n, -c) for n, c in terms)
        geq_info.append((terms, negated))
        by_part.setdefault(terms, []).append(index)

    upgraded: List[Constraint] = []
    consumed: Set[int] = set()
    for index, constraint in enumerate(result):
        info = geq_info[index]
        if info is None or index in consumed:
            continue
        # First (in result order) non-consumed constraint -e + c >= 0 with
        # the negated variable part — same partner the linear scan found.
        partner = None
        for candidate in by_part.get(info[1], ()):
            if candidate != index and candidate not in consumed:
                partner = candidate
                break
        if partner is None:
            continue
        # constraint: v + c1 >= 0; partner: -v + c2 >= 0
        # -c1 <= v <= c2  (v is the variable part)
        c1 = constraint.expr.constant
        c2 = result[partner].expr.constant
        if -c1 > c2:
            return None
        if -c1 == c2:
            consumed.add(index)
            consumed.add(partner)
            upgraded.append(Constraint(constraint.expr, EQ))

    final = [
        c for i, c in enumerate(result) if i not in consumed
    ] + upgraded
    # Deduplicate again (upgrades can collide with existing equalities).
    deduped: List[Constraint] = []
    seen = set()
    for constraint in final:
        false, tautology, _, _ = constraint.classify()
        if false:
            return None
        if tautology or constraint in seen:
            continue
        seen.add(constraint)
        deduped.append(constraint)
    used_wildcards = tuple(
        w
        for w in conjunct.wildcards
        if any(c.coeff(w) for c in deduped)
    )
    return Conjunct(deduped, used_wildcards)


# ---------------------------------------------------------------------------
# Equality elimination
# ---------------------------------------------------------------------------

def _symmetric_mod(a: int, m: int) -> int:
    """Pugh's mod-hat: residue of ``a`` modulo ``m`` in ``(-m/2, m/2]``."""
    r = a % m
    if r > m // 2:
        r -= m
    return r


def _resolving_vars(conjunct: Conjunct, equality: Constraint) -> List[str]:
    """Unit-coefficient variables of ``equality`` occurring in no other
    constraint — the equality merely *defines* such a variable."""
    found = []
    for var in equality.variables():
        if abs(equality.coeff(var)) != 1:
            continue
        elsewhere = any(
            c is not equality and c.coeff(var)
            for c in conjunct.constraints
        )
        if not elsewhere:
            found.append(var)
    return found


def solve_equalities(
    conjunct: Conjunct, protected: Set[str]
) -> Optional[Conjunct]:
    """Reduce the equality system exactly (Omega-test equality phase).

    * A unit-coefficient **wildcard** is substituted away entirely.
    * A unit-coefficient **protected** variable occurring in other
      constraints is substituted into those constraints; its defining
      equality is kept (in solved form).
    * Otherwise Pugh's symmetric-modulus substitution shrinks coefficients
      until one of the above applies.

    Returns ``None`` if an infeasibility is detected.
    """
    current = normalize(conjunct)
    for _ in range(_MAX_EQ_ITERATIONS):
        if current is None:
            return None
        action = _pick_equality_action(current, protected)
        if action is None:
            return current
        kind, equality, var = action
        if kind == "drop":
            # exists(var): var = expr ∧ rest  ≡  rest  when var ∉ rest.
            remaining = tuple(
                c for c in current.constraints if c is not equality
            )
            current = normalize(
                Conjunct(remaining, current.wildcards).drop_wildcard(var)
            )
        elif kind == "substitute":
            coeff = equality.coeff(var)
            rest = equality.expr.substitute(var, 0)
            replacement = rest.scaled(-1) if coeff == 1 else rest
            current = normalize(current.substitute(var, replacement))
        elif kind == "define":
            coeff = equality.coeff(var)
            rest = equality.expr.substitute(var, 0)
            replacement = rest.scaled(-1) if coeff == 1 else rest
            others = tuple(
                c.substitute(var, replacement) if c is not equality else c
                for c in current.constraints
            )
            current = normalize(Conjunct(others, current.wildcards))
        else:
            current = _mod_reduce(current, equality, var)
            current = normalize(current) if current is not None else None
    raise InexactOperationError(
        "equality elimination did not terminate within the iteration cap"
    )


def _pick_equality_action(
    conjunct: Conjunct, protected: Set[str]
) -> Optional[Tuple[str, Constraint, str]]:
    """Choose the next equality-processing step, or None at fixpoint."""
    mod_candidate: Optional[Tuple[str, Constraint, str]] = None
    mod_coeff = None
    define_candidate: Optional[Tuple[str, Constraint, str]] = None
    for equality in conjunct.equalities():
        # An unprotected unit variable substitutes away outright — strictly
        # reduces the variable count, so it is always safe progress, even
        # when the equality is also in resolved (definition) form.
        for var in equality.variables():
            if var not in protected and abs(equality.coeff(var)) == 1:
                return ("substitute", equality, var)
        resolving = _resolving_vars(conjunct, equality)
        if resolving:
            droppable = [v for v in resolving if v not in protected]
            if droppable:
                return ("drop", equality, droppable[0])
            continue
        for var in equality.variables():
            coeff = abs(equality.coeff(var))
            if var not in protected:
                if mod_coeff is None or coeff < mod_coeff:
                    mod_candidate = ("modreduce", equality, var)
                    mod_coeff = coeff
            elif coeff == 1 and define_candidate is None:
                define_candidate = ("define", equality, var)
    if define_candidate is not None:
        return define_candidate
    return mod_candidate


def _mod_reduce(
    conjunct: Conjunct, equality: Constraint, var: str
) -> Optional[Conjunct]:
    """Pugh's symmetric-modulus substitution shrinking coefficients.

    Rewrites ``var`` in terms of a fresh wildcard ``sigma`` such that the
    system is equisatisfiable and the coefficient magnitudes in the equality
    strictly decrease, guaranteeing termination of ``solve_equalities``.
    """
    a_k = equality.coeff(var)
    expr = equality.expr if a_k > 0 else -equality.expr
    a_k = abs(a_k)
    m = a_k + 1
    sigma = fresh_name("s")
    # var = sum(mod-hat coeffs) x_i + mod-hat const - m*sigma  (i != var),
    # derived from the equality taken modulo m (mod-hat(a_k, m) == -1).
    replacement = LinExpr({sigma: -m}, _symmetric_mod(expr.constant, m))
    for name, coeff in expr.terms():
        if name == var:
            continue
        replacement = replacement + LinExpr(
            {name: _symmetric_mod(coeff, m)}, 0
        )
    updated = conjunct.substitute(var, replacement)
    return updated.with_wildcards([sigma])


# ---------------------------------------------------------------------------
# Fourier–Motzkin with integer exactness
# ---------------------------------------------------------------------------

def eliminate_variable(
    conjunct: Conjunct,
    var: str,
    approximate: bool = False,
) -> List[Conjunct]:
    """Exactly project ``var`` out of ``conjunct`` (a union may result).

    ``var`` is treated as existential.  When ``approximate`` is true the real
    shadow is returned even when inexact (an over-approximation), which some
    callers (bound computation for code generation, where guards re-check
    membership) can tolerate.
    """
    prepared = solve_equalities(
        conjunct,
        protected=set(conjunct.variables()) - {var} - set(conjunct.wildcards),
    )
    if prepared is None:
        return []
    if not prepared.uses(var):
        return [prepared.drop_wildcard(var)]
    # ``var`` may still sit in an equality (with |coeff| > 1); try to force
    # elimination treating var as the only unprotected variable.
    if any(eq.coeff(var) for eq in prepared.equalities()):
        prepared = solve_equalities(
            prepared, protected=set(prepared.variables()) - {var}
        )
        if prepared is None:
            return []
        if not prepared.uses(var):
            return [prepared.drop_wildcard(var)]
        if any(eq.coeff(var) for eq in prepared.equalities()):
            # Resolved stride form (e.g. ``i = 2*var + 1``): var cannot be
            # eliminated from the representation; keeping it existential is
            # semantically the projection.
            if var in prepared.wildcards:
                return [prepared]
            return [prepared.with_wildcards([var])]

    # Presolve pinning: when interval propagation proves the system forces
    # ``var == v``, substitution *is* the exact projection —
    # ``exists var: C  ==  C[var := v]`` — with none of the quadratic
    # Fourier–Motzkin fill (and no splinters, even for non-unit
    # coefficients).  This is a representation-carrying rewrite: the
    # substituted constraint list generally differs from the
    # shadow-combination list, so it sits behind the byte-identity gate in
    # ``scripts/cache_roundtrip.py`` (DESIGN §14) and behind the presolve
    # kill switch.
    if presolve_on():
        pre = presolve_conjunct(prepared)
        if not pre.empty:
            value = pre.pinned.get(var)
            if value is not None:
                record_event("presolve.pin_eliminated")
                pinned = normalize(
                    prepared.substitute(var, LinExpr((), value))
                )
                if pinned is None:
                    return []
                return [pinned.drop_wildcard(var)]

    survivors: List[Constraint] = []
    lowers: List[Tuple[int, LinExpr]] = []  # b*var >= beta
    uppers: List[Tuple[int, LinExpr]] = []  # a*var <= alpha
    for constraint in prepared.constraints:
        coeff = constraint.coeff(var)
        if coeff == 0:
            survivors.append(constraint)
            continue
        assert not constraint.is_equality, "equalities handled above"
        rest = constraint.expr.substitute(var, 0)
        if coeff > 0:
            lowers.append((coeff, -rest))
        else:
            uppers.append((-coeff, rest))

    remaining_wildcards = tuple(
        w for w in prepared.wildcards if w != var
    )
    if not lowers or not uppers:
        result = normalize(Conjunct(survivors, remaining_wildcards))
        return [result] if result is not None else []

    exact = all(b == 1 or a == 1 for b, _ in lowers for a, _ in uppers)
    shadows: List[Constraint] = []
    dark_shadows: List[Constraint] = []
    for (b, beta), (a, alpha) in itertools.product(lowers, uppers):
        real = alpha.scaled(b) - beta.scaled(a)
        shadows.append(Constraint(real, GEQ))
        dark_shadows.append(Constraint(real - (a - 1) * (b - 1), GEQ))

    if exact or approximate:
        result = normalize(Conjunct(survivors + shadows, remaining_wildcards))
        return [result] if result is not None else []

    results: List[Conjunct] = []
    dark = normalize(
        Conjunct(survivors + dark_shadows, remaining_wildcards)
    )
    if dark is not None:
        results.append(dark)
    # Splinters: if an integer point lies in the real but not the dark
    # shadow, then for some lower bound b*var >= beta we have
    # b*var <= beta + (a_max*b - a_max - b) / a_max  (Pugh 1992).
    a_max = max(a for a, _ in uppers)
    total = 0
    for b, beta in lowers:
        top = (a_max * b - a_max - b) // a_max
        for i in range(top + 1):
            total += 1
            if total > MAX_SPLINTERS:
                raise InexactOperationError(
                    f"projection of {var} exceeded {MAX_SPLINTERS} splinters"
                )
            pinned = prepared.with_constraints(
                [Constraint(LinExpr({var: b}) - beta - i, EQ)]
            )
            results.extend(eliminate_variable(pinned, var))
    return results


def project_out(
    conjunct: Conjunct,
    names: Sequence[str],
    approximate: bool = False,
) -> List[Conjunct]:
    """Project several variables out of a conjunct, exactly; memoized.

    Variables are eliminated in the caller's sequence — deterministic and
    byte-stable, which every path whose conjuncts can reach emitted
    artifacts requires.
    """
    return list(gate(
        "project_out",
        lambda: _project_out_uncached(conjunct, names, approximate),
        len(conjunct.constraints),
        len,
        memo=_PROJECTION.memoize,
        key=(conjunct.exact_key(), tuple(names), approximate),
    ))


def _project_out_uncached(
    conjunct: Conjunct,
    names: Sequence[str],
    approximate: bool = False,
) -> List[Conjunct]:
    work = [conjunct.with_wildcards(
        [n for n in names if n not in conjunct.wildcards]
    )]
    for name in names:
        next_work: List[Conjunct] = []
        for item in work:
            next_work.extend(eliminate_variable(item, name, approximate))
        work = next_work
    # Eliminating a dim through its stride equality can strand the witness
    # in inequalities only; such wildcards are cheaply FME-eliminable and
    # would otherwise break exact negation downstream.
    cleaned: List[Conjunct] = []
    stack = list(work)
    while stack:
        item = stack.pop()
        stranded = next(
            (
                w
                for w in item.wildcards
                if item.uses(w)
                and not any(
                    c.coeff(w) for c in item.equalities()
                )
            ),
            None,
        )
        if stranded is None:
            cleaned.append(item)
        else:
            stack.extend(eliminate_variable(item, stranded, approximate))
    return cleaned


# ---------------------------------------------------------------------------
# Emptiness
# ---------------------------------------------------------------------------

def _choose_elimination_var(
    conjunct: Conjunct,
    intervals: Optional[Dict[str, Tuple[Optional[int], Optional[int]]]] = None,
) -> str:
    """Pick the variable whose elimination is cheapest (exact first).

    This is least-fill ordering on the emptiness path: a unit equality is
    free, otherwise the ``lowers × uppers`` Fourier–Motzkin fill decides
    (inexact eliminations are penalized since they splinter).  When the
    presolve supplies propagated ``intervals``, equal-fill candidates break
    ties toward the tightest propagated window — eliminating a
    narrow-range variable keeps the shadow systems small and, on the
    splinter path, bounds the splinter count by the window width.
    Emptiness is a boolean, so reordering here can never perturb
    representations.
    """
    best_var = None
    best_score = None
    for var in conjunct.variables():
        lowers = uppers = 0
        exact = True
        in_equality = False
        for constraint in conjunct.constraints:
            coeff = constraint.coeff(var)
            if coeff == 0:
                continue
            if constraint.is_equality:
                in_equality = True
                if abs(coeff) == 1:
                    return var  # unit equality: free elimination
            elif coeff > 0:
                lowers += 1
                exact = exact and coeff == 1
            else:
                uppers += 1
                exact = exact and coeff == -1
        fill = lowers * uppers + (0 if exact or in_equality else 10_000)
        if intervals is None:
            width = None
        else:
            width = interval_width(intervals, var)
        score = (fill, width if width is not None else float("inf"))
        if best_score is None or score < best_score:
            best_var = var
            best_score = score
    assert best_var is not None
    return best_var


def _quick_feasibility(conjunct: Conjunct) -> Optional[bool]:
    """Cheap pre-tests before full omega elimination: ``True`` = provably
    empty, ``False`` = provably nonempty, ``None`` = unknown.

    Combines the GCD test (an equality whose coefficient GCD does not
    divide its constant has no integer solution — surfaced by
    ``Constraint.is_false``) with one round of per-variable interval
    propagation: single-variable constraints pin ``[lo, hi]`` windows, and
    every remaining constraint is bounded by interval arithmetic.  When all
    constraints are single-variable and the windows are consistent, the
    product of the windows contains an integer point, so the conjunct is
    provably *non*-empty without any elimination.

    Sound in both directions; never changes the result of the full test,
    only short-circuits it (emptiness is a boolean, so no representation
    can be perturbed).

    The interval propagation is the presolve engine's
    (:func:`~.bounds.presolve_conjunct`): single-variable constraints seed
    the windows, then fixpoint rounds over the multi-variable constraints
    tighten them (see DESIGN §14).  Under
    ``reference_arm(presolve_off=True)`` a single seed-plus-check pass runs
    instead — the pre-presolve behaviour, kept as the A/B baseline for
    the byte-identity gate in ``scripts/cache_roundtrip.py``.
    """
    if presolve_on():
        pre = presolve_conjunct(conjunct)
        if pre.rounds:
            record_event("presolve.rounds", pre.rounds)
        if pre.tightened:
            record_event("presolve.tightened", pre.tightened)
        if pre.empty:
            record_event("presolve.empty")
            record_event(
                "fastpath.gcd_empty"
                if pre.reason == "gcd"
                else "fastpath.interval_empty"
            )
            return True
        if pre.pinned:
            record_event("presolve.pinned", len(pre.pinned))
        bounds = pre.intervals
        multi = list(pre.multi)
    else:
        bounds = {}
        multi = []
        for constraint in conjunct.constraints:
            if constraint.is_false():
                record_event("fastpath.gcd_empty")
                return True
            if constraint.is_tautology():
                continue
            terms = constraint.expr.terms()
            if len(terms) != 1:
                multi.append(constraint)
                continue
            (var, coeff), = terms
            const = constraint.expr.constant
            lo, hi = bounds.get(var, (None, None))
            if constraint.kind == EQ:
                # coeff*var + const == 0; construction divides the content
                # out when it divides const, so a remainder means infeasible.
                if const % coeff:
                    record_event("fastpath.gcd_empty")
                    return True
                value = -const // coeff
                if (lo is not None and value < lo) or (
                    hi is not None and value > hi
                ):
                    record_event("fastpath.interval_empty")
                    return True
                bounds[var] = (value, value)
            elif coeff > 0:
                new_lo = ceil_div(-const, coeff)
                if hi is not None and new_lo > hi:
                    record_event("fastpath.interval_empty")
                    return True
                bounds[var] = (
                    new_lo if lo is None else max(lo, new_lo), hi
                )
            else:
                new_hi = floor_div(const, -coeff)
                if lo is not None and new_hi < lo:
                    record_event("fastpath.interval_empty")
                    return True
                bounds[var] = (
                    lo, new_hi if hi is None else min(hi, new_hi)
                )
        for constraint in multi:
            max_val = min_val = constraint.expr.constant
            max_unbounded = min_unbounded = False
            for var, coeff in constraint.expr.terms():
                lo, hi = bounds.get(var, (None, None))
                if coeff > 0:
                    if hi is None:
                        max_unbounded = True
                    else:
                        max_val += coeff * hi
                    if lo is None:
                        min_unbounded = True
                    else:
                        min_val += coeff * lo
                else:
                    if lo is None:
                        max_unbounded = True
                    else:
                        max_val += coeff * lo
                    if hi is None:
                        min_unbounded = True
                    else:
                        min_val += coeff * hi
            if not max_unbounded and max_val < 0:
                record_event("fastpath.interval_empty")
                return True
            if (
                constraint.kind == EQ
                and not min_unbounded
                and min_val > 0
            ):
                record_event("fastpath.interval_empty")
                return True
    if not multi:
        # Independent windows, each nonempty: pick any point per variable.
        record_event("fastpath.interval_nonempty")
        return False
    if not any(c.kind == EQ for c in multi):
        # Witness probe: the lower corner of the interval box satisfies
        # every single-variable constraint by construction; if it happens
        # to satisfy the multi-variable inequalities too, the conjunct is
        # certified nonempty without any elimination.
        env: Dict[str, int] = {}
        for constraint in multi:
            for var, _ in constraint.expr.terms():
                if var in env:
                    continue
                lo, hi = bounds.get(var, _NO_WINDOW)
                if lo is not None:
                    env[var] = lo
                elif hi is not None:
                    env[var] = hi
                else:
                    env[var] = 0
        if all(c.expr.evaluate(env) >= 0 for c in multi):
            record_event("fastpath.corner_nonempty")
            return False
        if _repair_walk(env, bounds, multi):
            record_event("fastpath.repair_nonempty")
            return False
    return None


def _repair_walk(
    env: Dict[str, int],
    bounds: Dict[str, Tuple[Optional[int], Optional[int]]],
    multi: Sequence[Constraint],
) -> bool:
    """Min-conflicts walk from the corner point toward a witness.

    Repeatedly takes a violated inequality and moves one of its variables
    inside its interval window just far enough to satisfy it (or to the
    window edge when the full fix does not fit).  Every intermediate point
    respects the windows, so a point satisfying all multi-variable
    constraints is a genuine integer witness — the walk can only certify
    *non*-emptiness, never emptiness, and a step budget bounds the cost on
    systems where it ping-pongs.  Mutates ``env`` in place.

    The budget is a small constant: measured on the benchmark suite every
    walk that succeeds does so within five steps, while walks on actually
    empty systems always exhaust whatever budget they are given — so a
    longer leash only makes the (majority) failure case linearly more
    expensive without rescuing additional witnesses.
    """
    budget = 6
    for _ in range(budget):
        violated = None
        for constraint in multi:
            value = constraint.expr.evaluate(env)
            if value < 0:
                violated = constraint
                deficit = -value
                break
        if violated is None:
            return True
        moved = False
        partial = None
        for var, coeff in violated.expr.terms():
            lo, hi = bounds.get(var, _NO_WINDOW)
            current = env[var]
            if coeff > 0:
                need = current + -(-deficit // coeff)  # ceil
                if hi is None or need <= hi:
                    env[var] = need
                    moved = True
                    break
                if partial is None and hi > current:
                    partial = (var, hi)
            else:
                need = current - -(-deficit // -coeff)
                if lo is None or need >= lo:
                    env[var] = need
                    moved = True
                    break
                if partial is None and lo < current:
                    partial = (var, lo)
        if not moved:
            if partial is None:
                return False
            env[partial[0]] = partial[1]
    return False


_NO_WINDOW: Tuple[Optional[int], Optional[int]] = (None, None)


def is_empty_conjunct(conjunct: Conjunct) -> bool:
    """Exact integer emptiness test (all variables existential); memoized.

    Keyed on the alpha-canonical :meth:`Conjunct.key` (emptiness is
    invariant under wildcard renaming), LRU-bounded and counted in the
    ``isets.emptiness`` cache — this replaced a module-global dict that
    grew to 200k entries, never evicted, and leaked state across tests.
    """
    return gate(
        "is_empty_conjunct",
        lambda: _is_empty_conjunct_uncached(conjunct),
        len(conjunct.constraints),
        memo=_EMPTINESS.memoize,
        key=conjunct.key(),
    )


def _is_empty_conjunct_uncached(conjunct: Conjunct) -> bool:
    work: List[Conjunct] = [conjunct]
    while work:
        item = work.pop()
        quick = _quick_feasibility(item)
        if quick is not None:
            if quick:
                continue
            return False
        current = solve_equalities(item, protected=set())
        if current is None:
            continue
        # Equality solving tightens the system; re-run the cheap tests
        # before committing to a Fourier–Motzkin elimination round.
        quick = _quick_feasibility(current)
        if quick is not None:
            if quick:
                continue
            return False
        intervals = None
        if presolve_on():
            pre = presolve_conjunct(current)
            if pre.empty:
                continue
            # Presolve-pinned variables are implied equalities: the system
            # forces var == v, so substituting is an exact elimination that
            # skips Fourier–Motzkin entirely (emptiness is preserved —
            # every solution of the pinned system extends the original).
            if pre.pinned:
                pinned = current
                for var in sorted(pre.pinned):
                    pinned = pinned.substitute(
                        var, LinExpr((), pre.pinned[var])
                    )
                record_event("presolve.pin_eliminated", len(pre.pinned))
                reduced = normalize(pinned)
                if reduced is None:
                    continue
                work.append(reduced)
                continue
            intervals = pre.intervals
        variables = current.variables()
        if not variables:
            if all(c.holds({}) for c in current.constraints):
                return False
            continue
        var = _choose_elimination_var(current, intervals)
        work.extend(eliminate_variable(current, var))
    return True


# ---------------------------------------------------------------------------
# Redundancy / gist
# ---------------------------------------------------------------------------

def constraint_redundant(conjunct: Conjunct, constraint: Constraint) -> bool:
    """True if ``conjunct`` implies ``constraint``; memoized.

    Keyed exactly (the constraint may mention the conjunct's wildcards, so
    alpha-canonical keys would conflate different queries).
    """
    return gate(
        "constraint_redundant",
        lambda: _constraint_redundant_uncached(conjunct, constraint),
        len(conjunct.constraints),
        memo=_REDUNDANCY.memoize,
        key=(conjunct.exact_key(), constraint),
    )


def _syntactic_redundant(
    conjunct: Conjunct, constraint: Constraint
) -> bool:
    """Implication provable by inspection — no emptiness test needed.

    Covers the cases that dominate gisting in practice: the constraint is a
    tautology, literally present, a weakening of a present inequality with
    the same variable part (``e + c >= 0`` follows from ``e + c' >= 0``
    when ``c >= c'``), or pinned by a present equality over the same
    variable part (either orientation).  Constraints are content-normalized
    at construction, so proportional forms already coincide.  Sound
    one-way: ``True`` here implies the full test returns ``True``.
    """
    if constraint.is_tautology():
        return True
    expr = constraint.expr
    terms = expr.terms()
    const = expr.constant
    if constraint.kind == EQ:
        for present in conjunct.constraints:
            if present.kind == EQ and present.expr == expr:
                return True
        return False
    negated_terms = None
    for present in conjunct.constraints:
        present_terms = present.expr.terms()
        if present.kind == GEQ:
            if present_terms == terms and present.expr.constant <= const:
                return True
        else:
            # e + c' == 0 pins the variable part to -c'.
            if present_terms == terms and const >= present.expr.constant:
                return True
            if negated_terms is None:
                negated_terms = tuple((n, -c) for n, c in terms)
            if (
                present_terms == negated_terms
                and present.expr.constant + const >= 0
            ):
                return True
    return False


def _constraint_redundant_uncached(
    conjunct: Conjunct, constraint: Constraint
) -> bool:
    if _syntactic_redundant(conjunct, constraint):
        record_event("fastpath.syntactic_redundant")
        return True
    # Presolve prescreen: the propagated interval box contains every
    # solution of ``conjunct``, so an inequality that is nonnegative over
    # the whole box is implied — no negated-clause emptiness test needed.
    # One-way (False means "unknown"), so the full test below stays the
    # decision procedure.
    if presolve_on():
        pre = presolve_conjunct(conjunct)
        if not pre.empty and interval_implied(pre.intervals, constraint):
            record_event("presolve.implied")
            return True
    return all(
        is_empty_conjunct(conjunct.with_constraints([clause]))
        for clause in constraint.negated()
    )


def remove_redundancies(conjunct: Conjunct) -> Optional[Conjunct]:
    """Drop inequalities implied by the remaining constraints; memoized
    (exact key — the result keeps the input's wildcard names)."""
    return gate(
        "remove_redundancies",
        lambda: _remove_redundancies_uncached(conjunct),
        len(conjunct.constraints),
        _constraint_count,
        memo=_REDUNDANCY.memoize,
        key=(conjunct.exact_key(), None),
    )


def _remove_redundancies_uncached(conjunct: Conjunct) -> Optional[Conjunct]:
    current = normalize(conjunct)
    if current is None:
        return None
    kept: List[Constraint] = list(current.constraints)
    index = 0
    while index < len(kept):
        candidate = kept[index]
        if candidate.is_equality:
            index += 1
            continue
        rest = Conjunct(
            kept[:index] + kept[index + 1:], current.wildcards
        )
        if constraint_redundant(rest, candidate):
            kept.pop(index)
        else:
            index += 1
    return normalize(Conjunct(kept, current.wildcards))


def _syntactic_index(
    constraints: Sequence[Constraint],
) -> Tuple[Dict[Tuple, int], Dict[Tuple, List[int]]]:
    """Index a conjunct's constraints by variable part for batched
    syntactic screening: ``geq_min`` maps an inequality's term tuple to
    its smallest (tightest-implied) constant, ``eq_consts`` maps an
    equality's term tuple to every pinned constant."""
    geq_min: Dict[Tuple, int] = {}
    eq_consts: Dict[Tuple, List[int]] = {}
    for constraint in constraints:
        _index_add(geq_min, eq_consts, constraint)
    return geq_min, eq_consts


def _index_add(
    geq_min: Dict[Tuple, int],
    eq_consts: Dict[Tuple, List[int]],
    constraint: Constraint,
) -> None:
    terms = constraint.expr.terms()
    const = constraint.expr.constant
    if constraint.kind == EQ:
        eq_consts.setdefault(terms, []).append(const)
    else:
        best = geq_min.get(terms)
        if best is None or const < best:
            geq_min[terms] = const


def _index_implies(
    geq_min: Dict[Tuple, int],
    eq_consts: Dict[Tuple, List[int]],
    constraint: Constraint,
) -> bool:
    """Dictionary-lookup form of :func:`_syntactic_redundant` — decides
    the same implications (tautology, literal presence, weakening of a
    present inequality, pinned by a present equality in either
    orientation) without rescanning the context."""
    if constraint.is_tautology():
        return True
    terms = constraint.expr.terms()
    const = constraint.expr.constant
    if constraint.kind == EQ:
        return const in eq_consts.get(terms, ())
    best = geq_min.get(terms)
    if best is not None and best <= const:
        return True
    pinned = eq_consts.get(terms)
    if pinned and min(pinned) <= const:
        return True
    negated = tuple((name, -coeff) for name, coeff in terms)
    pinned = eq_consts.get(negated)
    if pinned and max(pinned) >= -const:
        return True
    return False


def incremental_redundancies(
    base: Conjunct, fresh: Sequence[Constraint]
) -> List[Constraint]:
    """Incremental redundancy removal against an established context.

    ``base`` is taken as given (its constraints are *not* re-examined);
    only the ``fresh`` constraints — the ones touched by the last
    operation — are tested, in order, each against ``base`` plus the
    previously kept ones.  This is the workhorse of gisting: after a set
    operation touches a conjunct, the untouched context never needs
    re-proving, so redundancy work scales with the delta, not the system.

    Queries are *batched per conjunct*: one pass over ``base`` builds a
    syntactic-implication index (variable part → tightest constant), so
    each fresh constraint is screened with O(1) lookups instead of the
    per-constraint context rescan that made this the dominant
    ``--profile-sets`` entry.  The screen decides exactly what
    :func:`_syntactic_redundant` decides.  A second, presolve-backed
    screen drops constraints that are nonnegative over ``base``'s
    propagated interval box (implied by ``base`` alone, hence by ``base``
    plus anything kept); only survivors pay the memoized emptiness-based
    implication test.
    """
    return gate(
        "incremental_redundancies",
        lambda: _incremental_redundancies(base, fresh),
        len(fresh),
        len,
    )


def _incremental_redundancies(
    base: Conjunct, fresh: Sequence[Constraint]
) -> List[Constraint]:
    geq_min, eq_consts = _syntactic_index(base.constraints)
    intervals = None
    if presolve_on():
        pre = presolve_conjunct(base)
        if not pre.empty:
            intervals = pre.intervals
    kept: List[Constraint] = []
    for constraint in fresh:
        if _index_implies(geq_min, eq_consts, constraint):
            record_event("fastpath.batched_syntactic")
            continue
        if intervals is not None and interval_implied(intervals, constraint):
            record_event("presolve.implied")
            continue
        if not constraint_redundant(
            base.with_constraints(kept), constraint
        ):
            kept.append(constraint)
            _index_add(geq_min, eq_consts, constraint)
    return kept


def gist_conjunct(
    conjunct: Conjunct, context: Conjunct
) -> Optional[Conjunct]:
    """Constraints of ``conjunct`` not already implied by ``context``.

    The result, conjoined with ``context``, equals ``conjunct ∧ context``.
    """
    simplified = normalize(conjunct)
    if simplified is None:
        return None
    base = context.conjoin(Conjunct((), simplified.wildcards))
    kept = incremental_redundancies(base, simplified.constraints)
    return Conjunct(kept, simplified.wildcards)
