"""Presburger integer sets and maps: the public algebra of the framework.

:class:`IntegerSet` and :class:`IntegerMap` are finite unions of
:class:`~repro.isets.conjunct.Conjunct` over a common
:class:`~repro.isets.space.Space`.  They provide the operation vocabulary the
paper's equations are written in: intersection, union, difference, domain,
range, composition, inverse, restriction and projection (paper Section 2 and
Appendix A).

Any variable that is neither a tuple dimension nor a wildcard is a *symbolic
constant* shared globally by name (``N``, ``P``, ``PIVOT``, ``myid``, ...).
"""

from __future__ import annotations

from typing import (
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cache.manager import caches
from .constraint import EQ, Constraint
from .conjunct import Conjunct
from .errors import InexactOperationError, SpaceMismatchError
from .bounds import presolve_disjoint
from .linexpr import ExprLike, LinExpr, _as_expr
from .omega import (
    gist_conjunct,
    is_empty_conjunct,
    normalize,
    project_out,
    remove_redundancies,
    solve_equalities,
)
from .profile import gate, record_event
from .space import Space, fresh_name

# Memoized set algebra on identical operands (see repro.cache): keys are
# exact structural keys (class, space, ordered conjuncts — wildcard names
# included), so a cache hit returns precisely what recomputation would.
_SETALG = caches.register("isets.setalg", maxsize=20_000)

#: Canonical conjunct instances, keyed exactly.  Interning hits measure how
#: often the same piece recurs; sharing instances also shares their lazily
#: cached keys.
_INTERN = caches.register("intern.conjunct", maxsize=65536)


def intern_conjunct(conjunct: Conjunct) -> Conjunct:
    """Canonical instance for ``conjunct``; an intern hit returns the
    first-seen structurally identical instance (same names, same order, so
    the swap is observationally invisible).  Uses the atomic
    :meth:`~repro.cache.manager.LRUCache.intern` so threads racing on the
    same key cannot mint two distinct "canonical" instances."""
    return gate(
        None, lambda: conjunct, memo=_intern, key=conjunct.exact_key()
    )


def _intern(key, compute):
    return _INTERN.intern(key, compute())


def presburger_key(value: "_Presburger") -> Tuple:
    """Exact structural key of an :class:`IntegerSet` / :class:`IntegerMap`.

    Includes the class, the space (dimension names and order), and the
    ordered conjunct keys — two sets hit the same entry only when a fresh
    computation would be indistinguishable.
    """
    space = value.space
    return (
        type(value).__name__,
        space.in_dims,
        space.out_dims,
        tuple(c.exact_key() for c in value.conjuncts),
    )


def _set_op(op: str, tag, compute, *operands: "_Presburger"):
    """Run a set-level operation through the gate, memoized in
    ``isets.setalg`` under ``tag`` plus its exact operands.  Sizes are
    conjunct counts (operand total in, result out)."""
    return gate(
        op,
        compute,
        sum(len(v.conjuncts) for v in operands),
        _conjunct_count,
        memo=_SETALG.memoize,
        key=(tag,) + tuple(presburger_key(v) for v in operands),
    )


def _conjunct_count(result: "_Presburger") -> int:
    return len(result.conjuncts)


def _prune_subsumed(conjuncts: List[Conjunct]) -> List[Conjunct]:
    """Drop disjuncts syntactically subsumed by another disjunct.

    If ``b``'s constraints are a subset of ``a``'s (both wildcard-free),
    then ``a ⊆ b`` as point sets and ``a`` is redundant in the union.
    Equal constraint sets keep the earliest occurrence.  Applied eagerly on
    the union/compose/subtract paths so disjunct counts stay minimal while
    intermediate results accumulate (the irredundant-representation
    discipline of Ferry/Derrien/Rajopadhye applied to our §5 pipeline).
    """
    if len(conjuncts) < 2:
        return conjuncts
    constraint_sets = [
        None if c.wildcards else frozenset(c.constraints)
        for c in conjuncts
    ]
    kept: List[Conjunct] = []
    for i, conjunct in enumerate(conjuncts):
        mine = constraint_sets[i]
        if mine is None:
            kept.append(conjunct)
            continue
        subsumed = False
        for j, theirs in enumerate(constraint_sets):
            if i == j or theirs is None:
                continue
            if theirs < mine or (theirs == mine and j < i):
                subsumed = True
                break
        if subsumed:
            record_event("fastpath.subsumed_pruned")
        else:
            kept.append(conjunct)
    return kept


class _Presburger:
    """Shared implementation of sets and maps (a union of conjuncts).

    Subclasses must be constructible as ``type(self)(space, conjuncts)``.
    """

    __slots__ = ("space", "conjuncts")

    def __init__(self, space: Space, conjuncts: Iterable[Conjunct] = ()):
        self.space = space
        cleaned: List[Conjunct] = []
        seen = set()
        for conjunct in conjuncts:
            simplified = normalize(conjunct)
            if simplified is None:
                continue
            key = simplified.key()
            if key in seen:
                continue
            seen.add(key)
            # Hash-consing: structurally identical conjuncts share one
            # canonical instance (and its lazily cached keys).
            cleaned.append(intern_conjunct(simplified))
        self.conjuncts: Tuple[Conjunct, ...] = tuple(cleaned)

    # -- interrogation -------------------------------------------------------

    def parameters(self) -> Tuple[str, ...]:
        """Free symbolic constants referenced by any conjunct."""
        dims = set(self.space.all_dims())
        names = set()
        for conjunct in self.conjuncts:
            names.update(
                v for v in conjunct.free_variables() if v not in dims
            )
        return tuple(sorted(names))

    def is_empty(self) -> bool:
        return all(is_empty_conjunct(c) for c in self.conjuncts)

    def is_obviously_universe(self) -> bool:
        return any(not c.constraints for c in self.conjuncts)

    # -- alignment -------------------------------------------------------------

    def _align_other(self, other: "_Presburger") -> "_Presburger":
        """Rename ``other``'s tuple dims onto this object's dims."""
        if other.space == self.space:
            return other
        renaming = self.space.alignment_renaming(other.space)
        captured = set(other.parameters()) & set(renaming.values())
        if captured:
            raise SpaceMismatchError(
                f"alignment would capture symbolic constants "
                f"{sorted(captured)}"
            )
        return other._rename_dims(renaming)

    def _rename_dims(self, renaming: Mapping[str, str]) -> "_Presburger":
        conjuncts = []
        for conjunct in self.conjuncts:
            safe = conjunct.rename_wildcards_apart()
            conjuncts.append(safe.rename(dict(renaming)))
        return type(self)(self.space.rename(dict(renaming)), conjuncts)

    # -- algebra (space-preserving) ------------------------------------------------

    def union(self, other: "_Presburger") -> "_Presburger":
        other = self._align_other(other)
        return gate(
            "set.union",
            lambda: type(self)(
                self.space,
                _prune_subsumed(list(self.conjuncts + other.conjuncts)),
            ),
            len(self.conjuncts) + len(other.conjuncts),
            _conjunct_count,
        )

    def intersect(self, other: "_Presburger") -> "_Presburger":
        other = self._align_other(other)
        return _set_op(
            "set.intersect", "intersect",
            lambda: self._intersect_impl(other), self, other,
        )

    def _intersect_impl(self, other: "_Presburger") -> "_Presburger":
        conjuncts = [
            a.conjoin(b) for a in self.conjuncts for b in other.conjuncts
        ]
        return type(self)(self.space, conjuncts)

    def subtract(self, other: "_Presburger") -> "_Presburger":
        other = self._align_other(other)
        return _set_op(
            "set.subtract", "subtract",
            lambda: self._subtract_impl(other), self, other,
        )

    def _subtract_impl(self, other: "_Presburger") -> "_Presburger":
        result = list(self.conjuncts)
        for conjunct in other.conjuncts:
            clauses: Optional[List[Conjunct]] = None
            pieces: List[Conjunct] = []
            for a in result:
                # Disjoint operands pass through whole: ``a - conjunct``
                # is ``a`` itself, with no complement fan-out to re-prune.
                if presolve_disjoint(a, conjunct):
                    record_event("fastpath.disjoint_pretest")
                    pieces.append(a)
                    continue
                if clauses is None:
                    clauses = _complement_conjunct(conjunct)
                for clause in clauses:
                    # A complement clause contradicting ``a``'s windows
                    # contributes an empty product — skipping it here
                    # keeps empty pieces out of the next round's fan-out.
                    if presolve_disjoint(a, clause):
                        record_event("fastpath.disjoint_pretest")
                        continue
                    merged = normalize(a.conjoin(clause))
                    if merged is not None and not merged.is_trivially_false():
                        pieces.append(merged)
            # Keep the working union minimal: subsumed pieces only multiply
            # the next round's complement products.
            result = _prune_subsumed(pieces)
        return type(self)(self.space, result)

    def constrain(self, constraints: Iterable[Constraint]) -> "_Presburger":
        """Conjoin extra constraints onto every conjunct."""
        extra = tuple(constraints)
        if not self.conjuncts:
            return type(self)(self.space, [])
        return type(self)(
            self.space, [c.with_constraints(extra) for c in self.conjuncts]
        )

    def partial_evaluate(self, env: Mapping[str, int]) -> "_Presburger":
        """Substitute integer values for symbolic constants."""
        bound_dims = [d for d in self.space.all_dims() if d in env]
        if bound_dims:
            raise SpaceMismatchError(
                f"cannot substitute tuple dims {bound_dims}; use fix_dims"
            )
        return type(self)(
            self.space,
            [c.partial_evaluate(env) for c in self.conjuncts],
        )

    # -- simplification -----------------------------------------------------------

    def simplify(self, full: bool = False) -> "_Presburger":
        """Normalize conjuncts, drop empty/duplicate/subsumed ones.

        With ``full=True`` also removes redundant inequalities within each
        conjunct — more expensive, used before code generation.  Memoized.
        """
        return _set_op(
            "set.simplify", ("simplify", full),
            lambda: self._simplify_impl(full), self,
        )

    def _simplify_impl(self, full: bool) -> "_Presburger":
        protected = set(self.space.all_dims()) | set(self.parameters())
        cleaned: List[Conjunct] = []
        for conjunct in self.conjuncts:
            solved = solve_equalities(conjunct, protected)
            if solved is None:
                continue
            # Eliminate wildcards exactly where possible (keeps stride
            # witnesses, removes FME-eliminable ones); may split pieces.
            pieces = (
                project_out(solved, list(solved.wildcards))
                if solved.wildcards
                else [solved]
            )
            for piece in pieces:
                if full:
                    piece = remove_redundancies(piece)
                    if piece is None:
                        continue
                if is_empty_conjunct(piece):
                    continue
                cleaned.append(piece)
        # Syntactic subsumption: if b's constraints are a subset of a's,
        # then a ⊆ b and a is redundant in the union.
        return type(self)(self.space, _prune_subsumed(cleaned))

    def gist(self, context: "_Presburger") -> "_Presburger":
        """Drop constraints implied by a context known to hold."""
        context = self._align_other(context)
        if len(context.conjuncts) != 1:
            raise InexactOperationError(
                "gist requires a one-conjunct context"
            )
        base = context.conjuncts[0]
        results = []
        for conjunct in self.conjuncts:
            g = gist_conjunct(conjunct, base)
            if g is not None:
                results.append(g)
        return type(self)(self.space, results)

    # -- comparisons -------------------------------------------------------------

    def is_subset(self, other: "_Presburger") -> bool:
        return self.subtract(other).is_empty()

    def is_equal(self, other: "_Presburger") -> bool:
        return self.is_subset(other) and other.is_subset(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Presburger):
            return NotImplemented
        if not self.space.compatible_with(other.space):
            return False
        return self.is_equal(other)

    def __hash__(self) -> int:  # structural, not semantic
        return hash((self.space, frozenset(c.key() for c in self.conjuncts)))

    # -- projection core ---------------------------------------------------------

    def _project_dims(self, names: Sequence[str]) -> List[Conjunct]:
        results: List[Conjunct] = []
        for conjunct in self.conjuncts:
            results.extend(project_out(conjunct, list(names)))
        return results

    # -- printing ------------------------------------------------------------------

    def _body_str(self) -> str:
        if not self.conjuncts:
            return "false"
        if len(self.conjuncts) == 1:
            return str(self.conjuncts[0])
        return " or ".join(f"({c})" for c in self.conjuncts)

    def __repr__(self) -> str:
        return str(self)


class IntegerSet(_Presburger):
    """A union of conjuncts over a single tuple space: ``{[i,j] : ...}``."""

    def __init__(
        self,
        space_or_dims: Union[Space, Sequence[str]],
        conjuncts: Iterable[Conjunct] = (),
    ):
        space = (
            space_or_dims
            if isinstance(space_or_dims, Space)
            else Space(space_or_dims)
        )
        if space.is_map:
            raise SpaceMismatchError("IntegerSet requires a set space")
        super().__init__(space, conjuncts)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def universe(dims: Sequence[str]) -> "IntegerSet":
        return IntegerSet(Space(dims), [Conjunct()])

    @staticmethod
    def empty(dims: Sequence[str]) -> "IntegerSet":
        return IntegerSet(Space(dims), [])

    @staticmethod
    def from_constraints(
        dims: Sequence[str],
        constraints: Iterable[Constraint],
        wildcards: Iterable[str] = (),
    ) -> "IntegerSet":
        return IntegerSet(
            Space(dims), [Conjunct(tuple(constraints), tuple(wildcards))]
        )

    @property
    def dims(self) -> Tuple[str, ...]:
        return self.space.in_dims

    # -- projections ------------------------------------------------------------

    def project_out(self, *names: str) -> "IntegerSet":
        """Existentially eliminate the named dims (exactly)."""
        missing = [n for n in names if n not in self.space.in_dims]
        if missing:
            raise SpaceMismatchError(f"not dims of {self.space}: {missing}")
        conjuncts = self._project_dims(names)
        return IntegerSet(self.space.drop_dims(names), conjuncts)

    def project_onto(self, names: Sequence[str]) -> "IntegerSet":
        """Keep only the named dims, reordered as given."""
        if set(names) - set(self.space.in_dims):
            raise SpaceMismatchError("project_onto: unknown dim names")
        drop = [d for d in self.space.in_dims if d not in set(names)]
        projected = self.project_out(*drop)
        return IntegerSet(Space(tuple(names)), projected.conjuncts)

    # -- membership / slicing -----------------------------------------------------

    def contains(
        self, point: Sequence[int], env: Optional[Mapping[str, int]] = None
    ) -> bool:
        """Exact membership under parameter assignment ``env``."""
        if len(point) != self.space.arity_in:
            raise SpaceMismatchError("point arity mismatch")
        binding = dict(env or {})
        binding.update(zip(self.space.in_dims, point))
        return any(c.holds(binding) for c in self.conjuncts)

    def fix_dims(self, env: Mapping[str, ExprLike]) -> "IntegerSet":
        """Conjoin ``dim == value`` constraints (dims are kept)."""
        extra = [
            Constraint.eq(LinExpr.var(dim), _as_expr(value))
            for dim, value in env.items()
        ]
        return self.constrain(extra)

    def __str__(self) -> str:
        dims = ",".join(self.space.in_dims)
        return f"{{[{dims}] : {self._body_str()}}}"


class IntegerMap(_Presburger):
    """A union of conjuncts over an in/out space: ``{[i] -> [j] : ...}``."""

    def __init__(self, space: Space, conjuncts: Iterable[Conjunct] = ()):
        if not isinstance(space, Space) or not space.is_map:
            raise SpaceMismatchError("IntegerMap requires a map Space")
        super().__init__(space, conjuncts)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def universe(
        in_dims: Sequence[str], out_dims: Sequence[str]
    ) -> "IntegerMap":
        return IntegerMap(Space(in_dims, out_dims), [Conjunct()])

    @staticmethod
    def empty(
        in_dims: Sequence[str], out_dims: Sequence[str]
    ) -> "IntegerMap":
        return IntegerMap(Space(in_dims, out_dims), [])

    @staticmethod
    def from_constraints(
        in_dims: Sequence[str],
        out_dims: Sequence[str],
        constraints: Iterable[Constraint],
        wildcards: Iterable[str] = (),
    ) -> "IntegerMap":
        return IntegerMap(
            Space(in_dims, out_dims),
            [Conjunct(tuple(constraints), tuple(wildcards))],
        )

    @staticmethod
    def identity(dims: Sequence[str]) -> "IntegerMap":
        out_dims = [f"{d}'" for d in dims]
        if len(set(out_dims) | set(dims)) != 2 * len(dims):
            out_dims = [fresh_name("o") for _ in dims]
        constraints = [
            Constraint.eq(LinExpr.var(i), LinExpr.var(o))
            for i, o in zip(dims, out_dims)
        ]
        return IntegerMap.from_constraints(dims, out_dims, constraints)

    @staticmethod
    def from_exprs(
        in_dims: Sequence[str],
        exprs: Sequence[ExprLike],
        out_dims: Optional[Sequence[str]] = None,
    ) -> "IntegerMap":
        """The graph of the affine function ``i -> exprs(i)``."""
        if out_dims is None:
            out_dims = [fresh_name("o") for _ in exprs]
        constraints = [
            Constraint.eq(LinExpr.var(o), _as_expr(e))
            for o, e in zip(out_dims, exprs)
        ]
        return IntegerMap.from_constraints(in_dims, out_dims, constraints)

    @property
    def in_dims(self) -> Tuple[str, ...]:
        return self.space.in_dims

    @property
    def out_dims(self) -> Tuple[str, ...]:
        return self.space.out_dims

    # -- map operations -----------------------------------------------------------

    def inverse(self) -> "IntegerMap":
        return IntegerMap(self.space.reversed(), self.conjuncts)

    def domain(self) -> IntegerSet:
        conjuncts = self._project_dims(self.space.out_dims)
        return IntegerSet(self.space.domain_space(), conjuncts)

    def range(self) -> IntegerSet:
        conjuncts = self._project_dims(self.space.in_dims)
        return IntegerSet(self.space.range_space(), conjuncts)

    def _aligned_set(
        self, subset: IntegerSet, dims: Sequence[str]
    ) -> IntegerSet:
        return IntegerSet(Space(dims), [])._align_other(subset)

    def restrict_domain(self, subset: IntegerSet) -> "IntegerMap":
        aligned = self._aligned_set(subset, self.space.in_dims)
        conjuncts = [
            a.conjoin(b)
            for a in self.conjuncts
            for b in aligned.conjuncts
        ]
        return IntegerMap(self.space, conjuncts)

    def restrict_range(self, subset: IntegerSet) -> "IntegerMap":
        aligned = self._aligned_set(subset, self.space.out_dims)
        conjuncts = [
            a.conjoin(b)
            for a in self.conjuncts
            for b in aligned.conjuncts
        ]
        return IntegerMap(self.space, conjuncts)

    def apply(self, subset: IntegerSet) -> IntegerSet:
        """Image of ``subset`` under the map."""
        return self.restrict_domain(subset).range()

    def preimage(self, subset: IntegerSet) -> IntegerSet:
        return self.restrict_range(subset).domain()

    def then(self, other: "IntegerMap") -> "IntegerMap":
        """Composition in pipeline order: apply ``self`` first, then ``other``.

        Matches the paper's ``R1 ∘ R2`` (Appendix A definition).
        """
        if self.space.arity_out != other.space.arity_in:
            raise SpaceMismatchError(
                f"cannot compose {self.space} with {other.space}"
            )
        return _set_op(
            "set.then", "then", lambda: self._then_impl(other), self, other
        )

    def _then_impl(self, other: "IntegerMap") -> "IntegerMap":
        mids = [fresh_name("m") for _ in self.space.out_dims]
        left_renaming = dict(zip(self.space.out_dims, mids))
        right_renaming = dict(zip(other.space.in_dims, mids))
        out_names = list(other.space.out_dims)
        taken = set(self.space.in_dims) | set(mids)
        for index, name in enumerate(out_names):
            if name in taken:
                out_names[index] = fresh_name("o")
            taken.add(out_names[index])
        for old, new in zip(other.space.out_dims, out_names):
            right_renaming[old] = new
        conjuncts = []
        for a in self.conjuncts:
            left = a.rename_wildcards_apart().rename(left_renaming)
            for b in other.conjuncts:
                right = b.rename_wildcards_apart().rename(right_renaming)
                merged = Conjunct(
                    left.constraints + right.constraints,
                    left.wildcards + right.wildcards,
                )
                conjuncts.extend(project_out(merged, mids))
        return IntegerMap(
            Space(self.space.in_dims, out_names), _prune_subsumed(conjuncts)
        )

    def compose(self, other: "IntegerMap") -> "IntegerMap":
        """Classical composition: apply ``other`` first, then ``self``."""
        return other.then(self)

    def fix_input(self, values: Mapping[str, ExprLike]) -> "IntegerMap":
        extra = [
            Constraint.eq(LinExpr.var(dim), _as_expr(value))
            for dim, value in values.items()
        ]
        return self.constrain(extra)

    def contains(
        self,
        in_point: Sequence[int],
        out_point: Sequence[int],
        env: Optional[Mapping[str, int]] = None,
    ) -> bool:
        binding = dict(env or {})
        binding.update(zip(self.space.in_dims, in_point))
        binding.update(zip(self.space.out_dims, out_point))
        return any(c.holds(binding) for c in self.conjuncts)

    def __str__(self) -> str:
        ins = ",".join(self.space.in_dims)
        outs = ",".join(self.space.out_dims)
        return f"{{[{ins}] -> [{outs}] : {self._body_str()}}}"


# ---------------------------------------------------------------------------
# Complementation (used by subtract)
# ---------------------------------------------------------------------------

def _pivot_wildcard(conjunct: Conjunct, wildcard: str) -> Conjunct:
    """Confine ``wildcard`` to a single defining equality.

    If the wildcard occurs in several constraints but one of them is an
    equality ``k*w + R == 0``, every other occurrence ``α*w + rest`` is
    rewritten exactly by scaling with ``|k|`` and substituting
    ``k*w = -R``.  Raises when no defining equality exists.
    """
    occurrences = [c for c in conjunct.constraints if c.coeff(wildcard)]
    if len(occurrences) <= 1:
        return conjunct
    pivot = next((c for c in occurrences if c.is_equality), None)
    if pivot is None:
        raise InexactOperationError(
            f"wildcard {wildcard} occurs only in inequalities; "
            f"cannot negate exactly"
        )
    k = pivot.coeff(wildcard)
    s_expr = -(pivot.expr.substitute(wildcard, 0))  # k*w == s_expr
    rewritten: List[Constraint] = []
    for constraint in conjunct.constraints:
        alpha = constraint.coeff(wildcard)
        if constraint is pivot or alpha == 0:
            rewritten.append(constraint)
            continue
        rest = constraint.expr.substitute(wildcard, 0)
        sign = 1 if k > 0 else -1
        new_expr = s_expr.scaled(sign * alpha) + rest.scaled(abs(k))
        rewritten.append(Constraint(new_expr, constraint.kind))
    return Conjunct(rewritten, conjunct.wildcards)


def _negation_groups(
    conjunct: Conjunct,
) -> List[Tuple[Conjunct, List[Conjunct]]]:
    """Per-constraint ``(positive, disjoint negation clauses)`` pairs.

    Wildcard-free constraints negate directly (the two clauses of a negated
    equality are disjoint).  A wildcard appearing in exactly one equality
    (stride form ``k*w = e``) negates into the other residues
    ``e ≡ r (mod k), r = 1..k-1`` — also pairwise disjoint.  Anything else
    raises :class:`InexactOperationError`; we never silently approximate.
    """
    prepared = solve_equalities(
        conjunct, protected=set(conjunct.free_variables())
    )
    if prepared is None:  # conjunct is empty
        return [(Conjunct([Constraint.eq(LinExpr.const(1), 0)]), [Conjunct()])]
    for wildcard in prepared.wildcards:
        prepared = _pivot_wildcard(prepared, wildcard)
    groups: List[Tuple[Conjunct, List[Conjunct]]] = []
    for constraint in prepared.constraints:
        wilds = [w for w in prepared.wildcards if constraint.coeff(w)]
        if not wilds:
            negations = [Conjunct([n]) for n in constraint.negated()]
            groups.append((Conjunct([constraint]), negations))
            continue
        if len(wilds) > 1 or not constraint.is_equality:
            raise InexactOperationError(
                f"cannot negate wildcard constraint: {constraint}"
            )
        wildcard = wilds[0]
        modulus = abs(constraint.coeff(wildcard))
        base = constraint.expr.substitute(wildcard, 0)
        if constraint.coeff(wildcard) > 0:
            base = -base
        # Constraint says base == modulus * wildcard; negation: base takes
        # one of the other residues mod modulus.
        negations = []
        for residue in range(1, modulus):
            fresh = fresh_name("a")
            shifted = LinExpr.var(fresh).scaled(modulus) + residue - base
            negations.append(Conjunct([Constraint(shifted, EQ)], [fresh]))
        positive = Conjunct([constraint], [wildcard])
        groups.append((positive, negations))
    return groups


def _complement_conjunct(conjunct: Conjunct) -> List[Conjunct]:
    """Clauses whose union is the complement of ``conjunct``."""
    return [
        clause
        for _, negations in _negation_groups(conjunct)
        for clause in negations
    ]


def disjoint_subtract(a: Conjunct, b: Conjunct) -> List[Conjunct]:
    """``a - b`` as a list of *pairwise disjoint* conjuncts.

    Uses the prefix decomposition
    ``a∧¬g1 ∪ a∧g1∧¬g2 ∪ a∧g1∧g2∧¬g3 ∪ ...`` over ``b``'s constraints.
    ``b`` is first gisted against ``a`` so constraints they share do not
    spawn (empty) pieces — the same complexity-control trick §5 of the
    paper describes for intermediate set sizes.

    Identity fast path: when the two conjuncts' presolve windows prove
    ``a`` and ``b`` disjoint, ``a - b`` is ``a`` itself — no gisting, no
    negation, and one piece instead of a fan of fragments that would have
    to be re-proved disjoint downstream.  On disjoint-decomposition
    workloads (where pieces mostly cover disjoint index sub-domains) this
    skips the majority of all subtract pairs.
    """
    if presolve_disjoint(a, b):
        record_event("fastpath.disjoint_pretest")
        return [a]
    reduced = _gist_keeping_wildcards(b, a)
    if reduced is None:  # b is structurally empty: a - b = a
        return [a]
    pieces: List[Conjunct] = []
    prefix = a
    for positive, negations in _negation_groups(reduced):
        for clause in negations:
            if presolve_disjoint(prefix, clause):
                record_event("fastpath.disjoint_pretest")
                continue
            piece = normalize(prefix.conjoin(clause))
            if piece is not None and not piece.is_trivially_false():
                pieces.append(piece)
        prefix = prefix.conjoin(positive)
    return pieces


def _gist_keeping_wildcards(b: Conjunct, a: Conjunct) -> Optional[Conjunct]:
    """Drop constraints of ``b`` implied by ``a`` — but never constraints
    involving wildcards, whose defining equalities must stay paired with
    their other occurrences for exact negation."""
    from .omega import incremental_redundancies

    simplified = normalize(b)
    if simplified is None:
        return None
    wild = set(simplified.wildcards)
    keep = [
        c
        for c in simplified.constraints
        if any(c.coeff(w) for w in wild)
    ]
    base = a.conjoin(Conjunct(tuple(keep), simplified.wildcards))
    free = [
        c
        for c in simplified.constraints
        if not any(c.coeff(w) for w in wild)
    ]
    kept_free = incremental_redundancies(base, free)
    return Conjunct(tuple(keep) + tuple(kept_free), simplified.wildcards)


def split_disjoint(subset: "IntegerSet") -> List["IntegerSet"]:
    """Pairwise-disjoint single-conjunct sets covering ``subset``.

    This is the "disjoint disjunctive form" step of MMCodeGen (paper §5).
    """
    pieces = gate(
        "split_disjoint",
        lambda: _disjoint_pieces(subset.conjuncts),
        len(subset.conjuncts),
        len,
    )
    return [IntegerSet(subset.space, [p]) for p in pieces]


def _disjoint_pieces(conjuncts: Sequence[Conjunct]) -> List[Conjunct]:
    pieces: List[Conjunct] = []
    for conjunct in conjuncts:
        fresh = [conjunct]
        for existing in pieces:
            fresh = [
                remainder
                for piece in fresh
                for remainder in disjoint_subtract(piece, existing)
            ]
        pieces.extend(p for p in fresh if not is_empty_conjunct(p))
    return pieces
