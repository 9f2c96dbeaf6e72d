"""Conjunctions of affine constraints with existential (wildcard) variables.

A :class:`Conjunct` denotes ``exists(wildcards) : c_1 and ... and c_n``.
Wildcards arise from projection and from stride constraints such as
``exists a : i = 4a + 1``.  A Presburger set or map is a finite union of
conjuncts over a common :class:`~repro.isets.space.Space`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .constraint import Constraint
from .linexpr import ExprLike, LinExpr
from .space import fresh_name


class _ExactKey:
    """Order-exact memo key with a cached hash (see :meth:`Conjunct.exact_key`).

    A raw ``(constraints, wildcards)`` tuple re-hashes every constraint on
    every dict operation (tuples do not cache their hash); compile
    workloads do hundreds of thousands of memo lookups against conjuncts
    with dozens of constraints, so the re-hash showed up as millions of
    ``Constraint.__hash__`` calls in profiles.  The wrapper hashes once.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is _ExactKey and self.value == other.value
        )


class Conjunct:
    """An existentially quantified conjunction of affine constraints."""

    # ``_key`` caches the alpha-canonical dedup key; ``_ekey`` the
    # order-exact memo key; ``_presolve`` the per-object presolve verdict
    # (bounds.py).
    __slots__ = ("constraints", "wildcards", "_key", "_ekey", "_presolve")

    def __init__(
        self,
        constraints: Iterable[Constraint] = (),
        wildcards: Iterable[str] = (),
    ):
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self.wildcards: Tuple[str, ...] = tuple(wildcards)

    # -- basic queries -------------------------------------------------------

    def variables(self) -> Tuple[str, ...]:
        """All variables (including wildcards) mentioned, sorted."""
        names = set()
        for constraint in self.constraints:
            names.update(constraint.variables())
        return tuple(sorted(names))

    def free_variables(self) -> Tuple[str, ...]:
        """Variables mentioned that are not wildcards."""
        wild = set(self.wildcards)
        return tuple(v for v in self.variables() if v not in wild)

    def equalities(self) -> Tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if c.is_equality)

    def inequalities(self) -> Tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if not c.is_equality)

    def is_trivially_false(self) -> bool:
        return any(c.is_false() for c in self.constraints)

    def uses(self, name: str) -> bool:
        return any(c.coeff(name) for c in self.constraints)

    # -- construction helpers ---------------------------------------------------

    def with_constraints(self, extra: Iterable[Constraint]) -> "Conjunct":
        return Conjunct(self.constraints + tuple(extra), self.wildcards)

    def with_wildcards(self, extra: Iterable[str]) -> "Conjunct":
        return Conjunct(self.constraints, self.wildcards + tuple(extra))

    def drop_wildcard(self, name: str) -> "Conjunct":
        return Conjunct(
            self.constraints, tuple(w for w in self.wildcards if w != name)
        )

    def conjoin(self, other: "Conjunct") -> "Conjunct":
        """Conjunction; ``other``'s wildcards are renamed apart first."""
        other = other.rename_wildcards_apart()
        return Conjunct(
            self.constraints + other.constraints,
            self.wildcards + other.wildcards,
        )

    def rename_wildcards_apart(self) -> "Conjunct":
        """Give every wildcard a globally fresh name."""
        if not self.wildcards:
            return self
        renaming = {w: fresh_name("e") for w in self.wildcards}
        return self.rename(renaming)

    # -- transformation -----------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "Conjunct":
        return Conjunct(
            tuple(c.rename(mapping) for c in self.constraints),
            tuple(mapping.get(w, w) for w in self.wildcards),
        )

    def substitute(self, name: str, replacement: ExprLike) -> "Conjunct":
        """Substitute ``name`` everywhere; drops it from the wildcard list."""
        return Conjunct(
            tuple(c.substitute(name, replacement) for c in self.constraints),
            tuple(w for w in self.wildcards if w != name),
        )

    def partial_evaluate(self, env: Mapping[str, int]) -> "Conjunct":
        constraints = tuple(
            Constraint(c.expr.partial_evaluate(env), c.kind)
            for c in self.constraints
        )
        wildcards = tuple(w for w in self.wildcards if w not in env)
        return Conjunct(constraints, wildcards)

    # -- evaluation ------------------------------------------------------------------

    def holds(self, env: Mapping[str, int]) -> bool:
        """Membership test under a *complete* assignment of free variables.

        Wildcard satisfiability is decided exactly via the Omega-test
        emptiness check on the residual system.
        """
        residual = self.partial_evaluate(env)
        if not residual.wildcards:
            return all(c.holds({}) for c in residual.constraints)
        from .omega import is_empty_conjunct  # local import to avoid a cycle

        return not is_empty_conjunct(residual)

    # -- equality / printing ------------------------------------------------------------

    def key(self) -> Tuple:
        """Structural key used for deduplication (wildcards canonicalized).

        Computed lazily and cached on the instance — conjuncts are
        immutable, and equality/hashing/memoization all funnel through
        this key, so recomputing the wildcard canonicalization every time
        dominated profile traces before caching.
        """
        try:
            return self._key
        except AttributeError:
            pass
        if not self.wildcards:
            key = (frozenset(self.constraints), 0)
        else:
            renaming = {
                w: f"_w{i}" for i, w in enumerate(sorted(self.wildcards))
            }
            canon = self.rename(renaming)
            key = (frozenset(canon.constraints), len(self.wildcards))
        self._key = key
        return key

    def exact_key(self) -> _ExactKey:
        """The one exact memo/interning key: constraint order and wildcard
        names included, so a cached *transformation* of this conjunct is
        byte-for-byte what a fresh computation would produce (it
        distinguishes alpha-variants on purpose; :meth:`key` does not).
        Cached on the instance."""
        try:
            return self._ekey
        except AttributeError:
            key = self._ekey = _ExactKey((self.constraints, self.wildcards))
            return key

    def __getstate__(self):
        return (self.constraints, self.wildcards)

    def __setstate__(self, state):
        self.constraints, self.wildcards = state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Conjunct):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __str__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        if self.wildcards:
            names = ",".join(self.wildcards)
            return f"exists({names}: {body})"
        return body

    def __repr__(self) -> str:
        return f"Conjunct({self})"


def stride_constraint(
    var: ExprLike, modulus: int, offset: ExprLike = 0
) -> Tuple[Constraint, str]:
    """Build ``var ≡ offset (mod modulus)`` as an equality with a wildcard.

    Returns ``(constraint, wildcard_name)`` where the constraint reads
    ``var - offset - modulus * wildcard == 0``.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    wildcard = fresh_name("a")
    expr = (
        LinExpr.var(wildcard).scaled(modulus)
        + offset
        - var
    )
    return Constraint(expr, "=="), wildcard
