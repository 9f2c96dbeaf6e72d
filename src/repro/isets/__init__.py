"""Omega-like integer set/map library — the substrate of the framework.

This package provides, in pure Python, the subset of the Omega library's
functionality the paper relies on: Presburger sets and maps (unions of
existentially quantified affine conjuncts), exact integer projection and
emptiness (Pugh's Omega test), the set algebra of the paper's Appendix A,
and the bound extraction loop code generation needs.  The loops themselves
are written by the SPMD emitter (:mod:`repro.codegen.spmd`), the one code
generator.
"""

from .constraint import Constraint, ceil_div, floor_div
from .conjunct import Conjunct, stride_constraint
from .errors import (
    CodegenError,
    InexactOperationError,
    IntegerSetError,
    NonAffineError,
    ParseError,
    SpaceMismatchError,
)
from .linexpr import LinExpr, lin_sum
from .bounds import SymbolicBound, ground_range, inequality_projection
from .ops import IntegerMap, IntegerSet, disjoint_subtract, split_disjoint
from .parse import parse_map, parse_set
from .points import (
    UnboundedSetError,
    brute_force_points,
    count_points,
    enumerate_points,
    sample_point,
)
from .predicates import (
    Answer,
    PredicateResult,
    is_convex_1d,
    is_singleton_1d,
    projection,
    spans_full_range,
)
from .space import Space, fresh_name

__all__ = [
    "Answer",
    "SymbolicBound",
    "disjoint_subtract",
    "ground_range",
    "inequality_projection",
    "split_disjoint",
    "CodegenError",
    "Conjunct",
    "Constraint",
    "InexactOperationError",
    "IntegerMap",
    "IntegerSet",
    "IntegerSetError",
    "LinExpr",
    "NonAffineError",
    "ParseError",
    "PredicateResult",
    "Space",
    "SpaceMismatchError",
    "UnboundedSetError",
    "brute_force_points",
    "ceil_div",
    "count_points",
    "enumerate_points",
    "floor_div",
    "fresh_name",
    "is_convex_1d",
    "is_singleton_1d",
    "lin_sum",
    "parse_map",
    "parse_set",
    "projection",
    "sample_point",
    "spans_full_range",
    "stride_constraint",
]
