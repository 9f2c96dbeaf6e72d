"""Point enumeration for integer sets under concrete parameter bindings.

Enumeration is used by the test suites (to compare the symbolic algebra
against brute force) and by the runtime when it needs explicit data tuples
(e.g. building the index lists of a packed message).  Generated SPMD code
does *not* enumerate: it runs the loop nests and box rows that
:mod:`repro.codegen.spmd` writes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .bounds import ground_range
from .conjunct import Conjunct
from .errors import IntegerSetError
from .omega import is_empty_conjunct, normalize
from .ops import IntegerSet


class UnboundedSetError(IntegerSetError):
    """Enumeration was asked for a set with an unbounded dimension."""


def _conjunct_points(
    conjunct: Conjunct, dims: Sequence[str]
) -> Iterator[Tuple[int, ...]]:
    simplified = normalize(conjunct)
    if simplified is None:
        return
    if not dims:
        if not is_empty_conjunct(simplified):
            yield ()
        return
    head, tail = dims[0], dims[1:]
    lower, upper = ground_range(simplified, head)
    if lower is None or upper is None:
        raise UnboundedSetError(
            f"dimension {head!r} is not bounded; bind parameters first"
        )
    if lower > upper:
        return
    for value in range(lower, upper + 1):
        pinned = normalize(simplified.partial_evaluate({head: value}))
        if pinned is None:
            continue
        for rest in _conjunct_points(pinned, tail):
            yield (value,) + rest


def enumerate_points(
    subset: IntegerSet, env: Optional[Mapping[str, int]] = None
) -> List[Tuple[int, ...]]:
    """All tuples of ``subset`` under parameters ``env``, sorted, deduped.

    Raises :class:`UnboundedSetError` when a dimension is unbounded (for
    instance when a required symbolic constant was not bound).
    """
    binding = dict(env or {})
    points = set()
    for conjunct in subset.conjuncts:
        grounded = conjunct.partial_evaluate(binding)
        points.update(_conjunct_points(grounded, subset.space.in_dims))
    return sorted(points)


def count_points(
    subset: IntegerSet, env: Optional[Mapping[str, int]] = None
) -> int:
    """Number of distinct tuples in ``subset`` under ``env``."""
    return len(enumerate_points(subset, env))


def sample_point(
    subset: IntegerSet, env: Optional[Mapping[str, int]] = None
) -> Optional[Tuple[int, ...]]:
    """Some tuple of the set, or ``None`` if empty."""
    binding = dict(env or {})
    for conjunct in subset.conjuncts:
        grounded = conjunct.partial_evaluate(binding)
        for point in _conjunct_points(grounded, subset.space.in_dims):
            return point
    return None


def brute_force_points(
    subset: IntegerSet,
    box: Mapping[str, Tuple[int, int]],
    env: Optional[Mapping[str, int]] = None,
) -> List[Tuple[int, ...]]:
    """Reference enumeration by exhaustive membership over a box.

    Used by property-based tests to validate the symbolic algebra.
    """
    dims = subset.space.in_dims
    ranges = [range(box[d][0], box[d][1] + 1) for d in dims]
    result = []
    for point in itertools.product(*ranges):
        if subset.contains(point, env):
            result.append(point)
    return result
