"""Emission of set-framework objects as Python source expressions.

The generated node program runs with a tiny prelude (``_cdiv``, ``_fdiv``,
``_align``, and the run-time overlap removal ``disjoint_sections``)
injected by the emitter; loop bounds with divisors become calls
to those helpers, stride loops become aligned ``range`` calls, and guard
constraints become boolean expressions.  Conjuncts whose wildcards are not
in stride form fall back to an exact membership closure registered with the
runtime (``rt.member``), so generated guards are always exact.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..isets import (
    Conjunct,
    Constraint,
    IntegerSet,
    LinExpr,
    SymbolicBound,
)
from ..isets.errors import CodegenError
from ..isets.ops import _pivot_wildcard

PRELUDE = '''\
from repro.runtime.sections import disjoint_sections

def _fdiv(a, b):
    """floor(a/b) for positive divisor b."""
    return a // b

def _cdiv(a, b):
    """ceil(a/b) for positive divisor b."""
    return -((-a) // b)

def _align(lb, base, step):
    """Smallest value >= lb congruent to base modulo step."""
    return lb + ((base - lb) % step)
'''


def emit_linexpr(
    expr: LinExpr, rename: Optional[Mapping[str, str]] = None
) -> str:
    rename = rename or {}
    parts: List[str] = []
    for name, coeff in expr.terms():
        var = rename.get(name, name)
        if coeff == 1:
            parts.append(f"+ {var}")
        elif coeff == -1:
            parts.append(f"- {var}")
        elif coeff >= 0:
            parts.append(f"+ {coeff}*{var}")
        else:
            parts.append(f"- {-coeff}*{var}")
    if expr.constant or not parts:
        sign = "+" if expr.constant >= 0 else "-"
        parts.append(f"{sign} {abs(expr.constant)}")
    text = " ".join(parts)
    if text.startswith("+ "):
        text = text[2:]
    return f"({text})"


def emit_bound(
    bound: SymbolicBound, rename: Optional[Mapping[str, str]] = None
) -> str:
    inner = emit_linexpr(bound.expr, rename)
    if bound.divisor == 1:
        return inner
    helper = "_cdiv" if bound.is_lower else "_fdiv"
    return f"{helper}({inner}, {bound.divisor})"


def emit_lower(
    bounds: Sequence[SymbolicBound],
    rename: Optional[Mapping[str, str]] = None,
) -> str:
    pieces = [emit_bound(b, rename) for b in bounds]
    if len(pieces) == 1:
        return pieces[0]
    return f"max({', '.join(pieces)})"


def emit_upper(
    bounds: Sequence[SymbolicBound],
    rename: Optional[Mapping[str, str]] = None,
) -> str:
    pieces = [emit_bound(b, rename) for b in bounds]
    if len(pieces) == 1:
        return pieces[0]
    return f"min({', '.join(pieces)})"


def emit_constraint(
    constraint: Constraint, rename: Optional[Mapping[str, str]] = None
) -> str:
    lhs = emit_linexpr(constraint.expr, rename)
    op = "==" if constraint.is_equality else ">="
    return f"{lhs} {op} 0"


def emit_conjunct_guard(
    conjunct: Conjunct,
    rename: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """Boolean expression testing membership in a conjunct.

    Stride wildcards (``k*w == e`` with the wildcard confined to one
    equality) become modulus tests.  Returns ``None`` when the conjunct
    has wildcards that cannot be expressed this way (caller falls back to
    an ``rt.member`` closure).
    """
    prepared = conjunct
    try:
        for wildcard in conjunct.wildcards:
            prepared = _pivot_wildcard(prepared, wildcard)
    except Exception:
        return None
    terms: List[str] = []
    for constraint in prepared.constraints:
        wilds = [w for w in prepared.wildcards if constraint.coeff(w)]
        if not wilds:
            terms.append(emit_constraint(constraint, rename))
            continue
        if len(wilds) > 1 or not constraint.is_equality:
            return None
        wildcard = wilds[0]
        modulus = abs(constraint.coeff(wildcard))
        base = constraint.expr.substitute(wildcard, 0)
        if constraint.coeff(wildcard) > 0:
            base = -base
        # Only the residue class matters; canonicalize so emitted guards
        # are independent of the solver's representative.
        base = base.reduced_mod(modulus)
        terms.append(f"{emit_linexpr(base, rename)} % {modulus} == 0")
    if not terms:
        return "True"
    return " and ".join(terms)


def emit_set_guard(
    subset: IntegerSet,
    rename: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """Boolean expression for membership in a union of conjuncts."""
    if not subset.conjuncts:
        return "False"
    clauses: List[str] = []
    for conjunct in subset.conjuncts:
        clause = emit_conjunct_guard(conjunct, rename)
        if clause is None:
            return None
        clauses.append(f"({clause})")
    return " or ".join(clauses)


def emit_slice(
    lower_name: str, upper_name: str, offset: str, stride: int
) -> str:
    """One slice-index text for an array dim swept by the kernel loop.

    ``lower_name``/``upper_name`` are the (inclusive) loop-bound variables
    of the kernel launch; ``offset`` is the var-free part of the subscript
    minus the array's allocation lower bound.  The emitted slice
    ``lo+off : hi+off+1 : stride`` visits exactly the elements the scalar
    per-point loop would have touched, in the same order.
    """
    start = f"{lower_name} + {offset}"
    stop = f"{upper_name} + {offset} + 1"
    if stride > 1:
        return f"{start}:{stop}:{stride}"
    return f"{start}:{stop}"


def emit_arange(
    lower_name: str, upper_name: str, stride: int
) -> str:
    """The loop variable itself as a float64 vector (exact below 2**53)."""
    step = f", {stride}" if stride > 1 else ""
    return (
        f"np.arange({lower_name}, {upper_name} + 1{step}, "
        f"dtype=np.float64)"
    )


class SourceWriter:
    """Indented Python source accumulator."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        if text:
            self.lines.append("    " * self.depth + text)
        else:
            self.lines.append("")

    def push(self) -> None:
        self.depth += 1

    def pop(self) -> None:
        self.depth -= 1

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"
