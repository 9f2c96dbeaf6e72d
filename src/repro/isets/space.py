"""Tuple spaces for integer sets and maps.

A :class:`Space` records the ordered names of the input tuple dimensions and,
for maps, the output tuple dimensions.  Any variable appearing in a
constraint that is neither a tuple dimension nor a wildcard of its conjunct
is a *symbolic constant* (a free parameter such as ``N`` or ``P``), shared
globally by name as in the Omega library.

Binary operations align two spaces positionally: the second operand's tuple
variables are renamed to the first operand's, which is the behaviour the
paper's equations assume (e.g. intersecting ``loop`` sets built with
different index names).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Tuple

from .errors import SpaceMismatchError

_fresh_counter = itertools.count()


def fresh_name(stem: str = "e") -> str:
    """Return a globally fresh variable name.

    The ``$`` character cannot appear in parsed input, so fresh names can
    never collide with user-written dimension or parameter names.
    """
    return f"{stem}${next(_fresh_counter)}"


class Space:
    """The signature of a set (``out_dims is None``) or map."""

    __slots__ = ("in_dims", "out_dims")

    def __init__(
        self,
        in_dims: Iterable[str],
        out_dims: Optional[Iterable[str]] = None,
    ):
        self.in_dims: Tuple[str, ...] = tuple(in_dims)
        self.out_dims: Optional[Tuple[str, ...]] = (
            None if out_dims is None else tuple(out_dims)
        )
        names = list(self.in_dims) + list(self.out_dims or ())
        if len(set(names)) != len(names):
            raise SpaceMismatchError(f"duplicate dimension names in {self}")

    # -- queries -----------------------------------------------------------

    @property
    def is_map(self) -> bool:
        return self.out_dims is not None

    @property
    def arity_in(self) -> int:
        return len(self.in_dims)

    @property
    def arity_out(self) -> int:
        if self.out_dims is None:
            raise SpaceMismatchError("set space has no output tuple")
        return len(self.out_dims)

    def all_dims(self) -> Tuple[str, ...]:
        return self.in_dims + (self.out_dims or ())

    # -- alignment ---------------------------------------------------------

    def compatible_with(self, other: "Space") -> bool:
        """True if arities match (names may differ)."""
        if self.is_map != other.is_map:
            return False
        if len(self.in_dims) != len(other.in_dims):
            return False
        if self.is_map and len(self.out_dims) != len(other.out_dims):
            return False
        return True

    def alignment_renaming(self, other: "Space") -> Dict[str, str]:
        """Renaming that maps ``other``'s dims onto this space's dims."""
        if not self.compatible_with(other):
            raise SpaceMismatchError(
                f"cannot align space {other} with {self}"
            )
        renaming = dict(zip(other.in_dims, self.in_dims))
        if self.is_map:
            renaming.update(zip(other.out_dims, self.out_dims))
        return renaming

    # -- derived spaces ------------------------------------------------------

    def domain_space(self) -> "Space":
        return Space(self.in_dims)

    def range_space(self) -> "Space":
        if self.out_dims is None:
            raise SpaceMismatchError("set space has no range")
        return Space(self.out_dims)

    def reversed(self) -> "Space":
        if self.out_dims is None:
            raise SpaceMismatchError("cannot reverse a set space")
        return Space(self.out_dims, self.in_dims)

    def drop_dims(self, names: Iterable[str]) -> "Space":
        drop = set(names)
        in_dims = tuple(d for d in self.in_dims if d not in drop)
        out_dims = (
            None
            if self.out_dims is None
            else tuple(d for d in self.out_dims if d not in drop)
        )
        return Space(in_dims, out_dims)

    def rename(self, mapping: Dict[str, str]) -> "Space":
        in_dims = tuple(mapping.get(d, d) for d in self.in_dims)
        out_dims = (
            None
            if self.out_dims is None
            else tuple(mapping.get(d, d) for d in self.out_dims)
        )
        return Space(in_dims, out_dims)

    # -- equality / printing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self.in_dims == other.in_dims and self.out_dims == other.out_dims

    def __hash__(self) -> int:
        return hash((self.in_dims, self.out_dims))

    def __str__(self) -> str:
        ins = ",".join(self.in_dims)
        if self.out_dims is None:
            return f"[{ins}]"
        outs = ",".join(self.out_dims)
        return f"[{ins}] -> [{outs}]"

    def __repr__(self) -> str:
        return f"Space({self})"
