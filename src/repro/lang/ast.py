"""Abstract syntax for the mini-HPF source language.

The language is a small Fortran-77-with-HPF-directives subset covering
everything the paper's analyses consume: multidimensional REAL arrays,
PROCESSORS / TEMPLATE / ALIGN / DISTRIBUTE directives, perfect and imperfect
DO nests with affine bounds, assignments with affine subscripts, IF
statements, and per-statement ``ON_HOME`` computation-partitioning
annotations (the paper's CP model, Section 3.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float  # integer-valued Nums are used in index contexts

    def __str__(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Name(Expr):
    """A scalar variable, loop index, or symbolic program parameter."""

    ident: str

    def __str__(self) -> str:
        return self.ident


@dataclass(frozen=True)
class ArrayRef(Expr):
    array: str
    subscripts: Tuple[Expr, ...]

    def __str__(self) -> str:
        subs = ",".join(str(s) for s in self.subscripts)
        return f"{self.array}({subs})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / ** and comparisons < <= > >= == /=
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # '-' or 'not'
    operand: Expr

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Call(Expr):
    """Intrinsic call: max, min, abs, sqrt, mod, exp."""

    func: str
    args: Tuple[Expr, ...]

    def __str__(self) -> str:
        args = ",".join(str(a) for a in self.args)
        return f"{self.func}({args})"


# ---------------------------------------------------------------------------
# ON_HOME computation partitionings (paper Section 3.1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OnHomeTerm:
    """One ``ON_HOME A(f(i))`` term of a computation partitioning."""

    ref: ArrayRef

    def __str__(self) -> str:
        return f"ON_HOME {self.ref}"


@dataclass(frozen=True)
class ComputationPartitioning:
    """A union of ON_HOME terms (the paper's general CP model)."""

    terms: Tuple[OnHomeTerm, ...]

    def __str__(self) -> str:
        return " union ".join(str(t) for t in self.terms)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    __slots__ = ()


# itertools.count.__next__ is atomic, so concurrent parses (the compile
# service runs many client compiles in one process) cannot hand two
# statements of one program the same id the way the previous
# read-modify-write list cell could.
_stmt_counter = itertools.count(1)


def _next_stmt_id() -> int:
    return next(_stmt_counter)


@dataclass
class Assign(Stmt):
    lhs: Union[ArrayRef, Name]
    rhs: Expr
    cp: Optional[ComputationPartitioning] = None
    stmt_id: int = field(default_factory=_next_stmt_id)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass
class Do(Stmt):
    var: str
    lower: Expr
    upper: Expr
    step: Expr
    body: List[Stmt]
    stmt_id: int = field(default_factory=_next_stmt_id)

    def __str__(self) -> str:
        return f"do {self.var} = {self.lower}, {self.upper}"


@dataclass
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)
    stmt_id: int = field(default_factory=_next_stmt_id)

    def __str__(self) -> str:
        return f"if ({self.cond})"


@dataclass
class CallStmt(Stmt):
    """Call of another procedure of the program (by name)."""

    name: str
    args: Tuple[Expr, ...] = ()
    stmt_id: int = field(default_factory=_next_stmt_id)

    def __str__(self) -> str:
        return f"call {self.name}"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

Extent = Tuple[Expr, Expr]  # (lower, upper), e.g. (0, 99) for A(0:99)


@dataclass
class ArrayDecl:
    name: str
    extents: List[Extent]

    @property
    def rank(self) -> int:
        return len(self.extents)


@dataclass
class ScalarDecl:
    name: str


@dataclass
class ParameterDecl:
    """A named integer program parameter (symbolic unless a value is set)."""

    name: str
    value: Optional[int] = None


@dataclass
class ProcessorsDecl:
    """``processors P(e1, ..., ek)``; extents may be symbolic exprs.

    The reserved symbol ``nprocs`` denotes number_of_processors().
    """

    name: str
    extents: List[Expr]

    @property
    def rank(self) -> int:
        return len(self.extents)


@dataclass
class TemplateDecl:
    name: str
    extents: List[Extent]

    @property
    def rank(self) -> int:
        return len(self.extents)


@dataclass
class AlignDecl:
    """``align A(i,j) with T(i+1, j)``.

    ``dummies`` are the align dummy variables; ``targets`` has one entry per
    template dimension: an affine Expr over the dummies, or None for '*'.
    """

    array: str
    dummies: List[str]
    template: str
    targets: List[Optional[Expr]]


DIST_BLOCK = "block"
DIST_CYCLIC = "cyclic"
DIST_COLLAPSED = "*"


@dataclass
class DistFormat:
    """One dimension of a DISTRIBUTE directive."""

    kind: str  # DIST_BLOCK, DIST_CYCLIC or DIST_COLLAPSED
    block_size: Optional[Expr] = None  # for cyclic(k)

    def __str__(self) -> str:
        if self.kind == DIST_CYCLIC and self.block_size is not None:
            return f"cyclic({self.block_size})"
        return self.kind


@dataclass
class DistributeDecl:
    template: str
    formats: List[DistFormat]
    processors: str


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------

@dataclass
class Procedure:
    name: str
    body: List[Stmt]


@dataclass
class Program:
    """A whole mini-HPF program: declarations plus procedures.

    ``main`` is the procedure named 'main' or the first one declared.
    """

    name: str
    parameters: List[ParameterDecl] = field(default_factory=list)
    scalars: List[ScalarDecl] = field(default_factory=list)
    arrays: List[ArrayDecl] = field(default_factory=list)
    processors: List[ProcessorsDecl] = field(default_factory=list)
    templates: List[TemplateDecl] = field(default_factory=list)
    aligns: List[AlignDecl] = field(default_factory=list)
    distributes: List[DistributeDecl] = field(default_factory=list)
    procedures: List[Procedure] = field(default_factory=list)

    def procedure(self, name: str) -> Procedure:
        for procedure in self.procedures:
            if procedure.name == name:
                return procedure
        raise KeyError(f"no procedure named {name!r}")

    @property
    def main(self) -> Procedure:
        for procedure in self.procedures:
            if procedure.name == "main":
                return procedure
        return self.procedures[0]

    def array(self, name: str) -> ArrayDecl:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(f"no array named {name!r}")

    def template(self, name: str) -> TemplateDecl:
        for decl in self.templates:
            if decl.name == name:
                return decl
        raise KeyError(f"no template named {name!r}")

    def align_for(self, array: str) -> Optional[AlignDecl]:
        for decl in self.aligns:
            if decl.array == array:
                return decl
        return None

    def distribute_for(self, template: str) -> Optional[DistributeDecl]:
        for decl in self.distributes:
            if decl.template == template:
                return decl
        return None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def walk_statements(body: Sequence[Stmt]):
    """Yield every statement in a body, depth first, pre-order."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, Do):
            yield from walk_statements(stmt.body)
        elif isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)


def expr_array_refs(expr: Expr):
    """Yield every ArrayRef inside an expression, left to right."""
    if isinstance(expr, ArrayRef):
        yield expr
        for sub in expr.subscripts:
            yield from expr_array_refs(sub)
    elif isinstance(expr, BinOp):
        yield from expr_array_refs(expr.left)
        yield from expr_array_refs(expr.right)
    elif isinstance(expr, UnOp):
        yield from expr_array_refs(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from expr_array_refs(arg)


def expr_names(expr: Expr):
    """Yield every Name inside an expression."""
    if isinstance(expr, Name):
        yield expr.ident
    elif isinstance(expr, ArrayRef):
        for sub in expr.subscripts:
            yield from expr_names(sub)
    elif isinstance(expr, BinOp):
        yield from expr_names(expr.left)
        yield from expr_names(expr.right)
    elif isinstance(expr, UnOp):
        yield from expr_names(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from expr_names(arg)
