"""Processor grids and their symbolic extents.

A ``processors P(e1, ..., ek)`` declaration yields a :class:`ProcessorGrid`
whose per-dimension extent is either a concrete int (when the extent
expression is a constant) or a fresh symbolic constant bound at SPMD startup
(e.g. ``P(2, nprocs/2)`` gives extent symbols bound from the actual
processor count).  Grid dimension *names* are the domain dims of every
layout map on the grid; ``my`` symbols denote the executing processor's
coordinate (or its active virtual-processor coordinate, Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..isets import Constraint, IntegerSet, LinExpr
from ..lang.ast import Expr, Num, ProcessorsDecl
from ..lang.affine import to_affine

ExtentValue = Union[int, LinExpr]


@dataclass
class RuntimeBinding:
    """A symbol the generated node program computes at startup.

    ``kind`` is one of:

    * ``"expr"`` — evaluate the language expression ``args[0]``;
    * ``"ceil_div"`` — ``ceil(args[0] / args[1])`` where args are prior
      symbols/ints or affine expressions (used for block sizes);
    * ``"grid_coord"`` — coordinate ``args[1]`` of this rank in a grid with
      extents ``args[0]`` (row-major rank decomposition);
    * ``"affine"`` — evaluate the :class:`LinExpr` in ``args[0]`` over
      previously bound symbols (used for ``vm = B*m + tlb``).
    """

    symbol: str
    kind: str
    args: tuple


class ProcessorGrid:
    """A processor array with 0-based coordinates per dimension."""

    def __init__(self, decl: ProcessorsDecl):
        self.decl = decl
        self.name = decl.name
        self.dim_names: Tuple[str, ...] = tuple(
            f"{decl.name}_{d}" for d in range(decl.rank)
        )
        self.my_names: Tuple[str, ...] = tuple(
            f"my_{decl.name}_{d}" for d in range(decl.rank)
        )
        self.extents: List[ExtentValue] = []
        self.bindings: List[RuntimeBinding] = []
        for d, expr in enumerate(decl.extents):
            self.extents.append(self._extent_value(d, expr))
        self.bindings.append(
            RuntimeBinding(
                f"my_rank_{self.name}", "grid_coord",
                (tuple(self.extent_exprs()), None),
            )
        )
        for d in range(decl.rank):
            self.bindings.append(
                RuntimeBinding(
                    self.my_names[d], "grid_coord",
                    (tuple(self.extent_exprs()), d),
                )
            )

    def _extent_value(self, dim: int, expr: Expr) -> ExtentValue:
        try:
            affine = to_affine(expr)
        except Exception:
            affine = None
        if affine is not None:
            if affine.is_constant():
                return affine.constant
            # Affine in parameters (e.g. plain NP): usable symbolically.
            return affine
        symbol = f"P_{self.name}_{dim}"
        self.bindings.append(RuntimeBinding(symbol, "expr", (expr,)))
        return LinExpr.var(symbol)

    @property
    def rank(self) -> int:
        return self.decl.rank

    def extent_exprs(self) -> List[Union[int, LinExpr]]:
        return list(self.extents)

    def extent_affine(self, dim: int) -> LinExpr:
        value = self.extents[dim]
        if isinstance(value, int):
            return LinExpr.const(value)
        return value

    def dim_bounds(self, dim: int) -> List[Constraint]:
        """0 <= p_dim <= extent - 1 as constraints on the grid dim name."""
        p = LinExpr.var(self.dim_names[dim])
        return [
            Constraint.geq(p, 0),
            Constraint.leq(p, self.extent_affine(dim) - 1),
        ]

    def proc_set(self) -> IntegerSet:
        """The set of processor coordinate tuples."""
        constraints = []
        for dim in range(self.rank):
            constraints.extend(self.dim_bounds(dim))
        return IntegerSet.from_constraints(self.dim_names, constraints)

