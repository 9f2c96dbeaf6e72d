"""Hash-consing: stable structural keys and canonical instances.

Every memoization cache needs a key that is *structural* (equal pieces hit
the same entry) yet *exact* (no alpha-renaming, so a cached result can be
substituted for a fresh computation byte-for-byte).  This module defines
those keys for the four ``isets`` value types and an interning table that
canonicalizes :class:`~repro.isets.conjunct.Conjunct` instances, so the
same affine piece recurring across the paper's Figure 3/4/5 equations is
stored — and keyed — once.

Two kinds of key coexist deliberately:

* the **exact keys** here include wildcard names and constraint order, so
  memoized *transformations* (projection, redundancy removal, set algebra)
  replay deterministically — critical for the guarantee that
  ``CompilerOptions(caching="off")`` emits byte-identical programs;
* :meth:`Conjunct.key` stays alpha-canonical (wildcards renamed
  positionally) and is used only where the cached value is insensitive to
  names — the boolean emptiness test and union deduplication.

Imports go one way: ``repro.cache.manager`` is dependency-free, this
module imports ``isets`` types, and ``isets`` modules import back only the
manager (plus the tiny helpers here), so there are no cycles.
"""

from __future__ import annotations

from typing import Tuple

from ..isets.conjunct import Conjunct
from ..isets.constraint import Constraint
from ..isets.linexpr import LinExpr
from .manager import caches

#: Canonical conjunct instances, keyed exactly.  Interning hits measure how
#: often the same piece recurs; sharing instances also shares their lazily
#: cached alpha-canonical keys.
_INTERN = caches.register("intern.conjunct", maxsize=65536)


def linexpr_key(expr: LinExpr) -> Tuple:
    """Exact structural key of an affine expression."""
    return ("lin", tuple(expr.terms()), expr.constant)


def constraint_key(constraint: Constraint) -> Tuple:
    """Exact structural key of a constraint (kind + normalized expr)."""
    return ("con", constraint.kind, tuple(constraint.expr.terms()),
            constraint.expr.constant)


def conjunct_key(conjunct: Conjunct) -> Tuple:
    """Exact structural key: constraint order and wildcard names included.

    Constraints hash-cons their own ``_hash`` so this tuple is cheap to
    hash; it distinguishes alpha-variants on purpose (see module docs).
    """
    return ("cj", conjunct.constraints, conjunct.wildcards)


def presburger_key(value) -> Tuple:
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
        tuple(conjunct_key(c) for c in value.conjuncts),
    )


def intern_conjunct(conjunct: Conjunct) -> Conjunct:
    """Canonical instance for ``conjunct``; an intern hit returns the
    first-seen structurally identical instance (same names, same order, so
    the swap is observationally invisible).  Uses the atomic
    :meth:`~repro.cache.manager.LRUCache.intern` so threads racing on the
    same key cannot mint two distinct "canonical" instances."""
    if not caches.enabled:
        return conjunct
    return _INTERN.intern(conjunct_key(conjunct), conjunct)
