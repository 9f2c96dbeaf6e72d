"""In-place communication recognition (paper Section 3.3).

Fortran arrays are column-major, so a communication set ``C`` over an array
``A`` with ``n`` dims is a contiguous address range iff there is a ``k``
with:

* dims ``1 <= i < k`` (leftmost, fastest-varying): ``C<i> == A<i>`` (spans
  the full allocated range);
* dim ``k``: ``IsConvex(C<k>)``;
* dims ``k+1 .. n``: ``IsSingleton(C<i>)``.

Each test reduces to a satisfiability question (a *violation set*); a test
that is neither provably true nor provably false at compile time (symbolic
parameters) is recorded so an equivalent predicate can be evaluated at run
time with at most ``n + 2`` checks — the combined compile-time/run-time
scheme of the paper.  Like dHPF, the compile-time path applies to
single-conjunct communication sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..cache.manager import caches
from ..isets import (
    Answer,
    IntegerSet,
    is_convex_1d,
    is_singleton_1d,
    spans_full_range,
)
from ..isets.ops import presburger_key
from ..isets.profile import gate

# Grounded verdicts of the run-time half, keyed structurally (the check's
# two sets + the binding of the symbols they mention): a launch asks the
# same question again for every rank pair that differs only in symbols
# the sets never read, and every re-launch asks all of them again.
_RUNTIME_VERDICTS = caches.register("core.inplace.runtime", maxsize=4096)


@dataclass
class RuntimePredicate:
    """One deferred test: emptiness of ``violations`` under parameters."""

    description: str
    violations: IntegerSet


@dataclass
class InPlaceResult:
    """Outcome of the contiguity analysis for one communication set."""

    answer: Answer
    pivot_dim: Optional[int] = None  # the k of the condition above
    runtime_checks: List[RuntimePredicate] = field(default_factory=list)
    #: original operands, kept so the run-time half of the combined
    #: algorithm can repeat the dimension scan with grounded parameters.
    comm_set: Optional[IntegerSet] = None
    array_bounds: Optional[IntegerSet] = None


def analyze_contiguity(
    comm_set: IntegerSet, array_bounds: IntegerSet
) -> InPlaceResult:
    """Apply the §3.3 condition with the single-scan dimension search.

    ``comm_set`` and ``array_bounds`` share the array's index space.  As in
    the paper, a single scan over the dimensions (leftmost first) finds the
    first dimension ``k`` where the set stops spanning the full range; the
    predicates are then checked for ``k .. n``, avoiding O(n²) tests.
    """
    if comm_set.is_empty():
        return InPlaceResult(Answer.TRUE, pivot_dim=0)
    if len(comm_set.conjuncts) > 1:
        # dHPF applies the compile-time test to single-conjunct sets only
        # (mutually-exclusive disjunct support is noted as future work).
        return InPlaceResult(
            Answer.UNKNOWN, comm_set=comm_set, array_bounds=array_bounds
        )
    rank = comm_set.space.arity_in
    checks: List[RuntimePredicate] = []
    pivot = rank  # if every dim spans fully, condition holds with k = n
    # Coverage is tested under the communication set's own parameter
    # preconditions (e.g. "the outer loop index is in range"): outside
    # them no message exists, so they cannot witness a violation.
    data_dims = set(comm_set.space.in_dims)
    preconditions = [
        c
        for c in comm_set.conjuncts[0].constraints
        if not any(c.coeff(d) for d in data_dims)
        and not any(
            c.coeff(w) for w in comm_set.conjuncts[0].wildcards
        )
    ]
    for dim in range(rank):
        comm_proj = _projection(comm_set, dim)
        full_proj = _projection(array_bounds, dim).constrain(preconditions)
        spans = spans_full_range(comm_proj, full_proj)
        if spans.answer is Answer.TRUE:
            continue
        if spans.answer is Answer.UNKNOWN:
            checks.append(
                RuntimePredicate(
                    f"dim {dim} spans full allocated range",
                    spans.violations,
                )
            )
        pivot = dim
        break
    if pivot == rank:
        if not checks:
            return InPlaceResult(Answer.TRUE, pivot_dim=rank)
        return InPlaceResult(
            Answer.UNKNOWN, rank, checks,
            comm_set=comm_set, array_bounds=array_bounds,
        )

    answer = Answer.TRUE
    convex = is_convex_1d(_projection(comm_set, pivot))
    if convex.answer is Answer.FALSE:
        return InPlaceResult(Answer.FALSE, pivot)
    if convex.answer is Answer.UNKNOWN:
        checks.append(
            RuntimePredicate(
                f"dim {pivot} index range is convex", convex.violations
            )
        )
        answer = Answer.UNKNOWN
    for dim in range(pivot + 1, rank):
        single = is_singleton_1d(_projection(comm_set, dim))
        if single.answer is Answer.FALSE:
            return InPlaceResult(Answer.FALSE, pivot)
        if single.answer is Answer.UNKNOWN:
            checks.append(
                RuntimePredicate(
                    f"dim {dim} holds a single index", single.violations
                )
            )
            answer = Answer.UNKNOWN
    if checks:
        answer = Answer.UNKNOWN
    return InPlaceResult(
        answer, pivot, checks,
        comm_set=comm_set, array_bounds=array_bounds,
    )


def _projection(subset: IntegerSet, dim: int) -> IntegerSet:
    return subset.project_onto([subset.space.in_dims[dim]])


def analyze_contiguity_per_message(
    comm_data: IntegerSet, array_bounds: IntegerSet
) -> InPlaceResult:
    """Contiguity of each *message* of a communication set.

    The compiler passes the self-inclusive scan map, whose conjuncts are
    one per coalesced reference with the partner coordinates symbolic;
    self pairs are left to the emitter's rank guard.  The whole event is
    in-place when every piece is contiguous on its own."""
    if not comm_data.conjuncts:
        return InPlaceResult(Answer.TRUE, pivot_dim=0)
    results = [
        analyze_contiguity(
            IntegerSet(comm_data.space, [conjunct]), array_bounds
        )
        for conjunct in comm_data.conjuncts
    ]
    if all(r.answer is Answer.TRUE for r in results):
        return InPlaceResult(Answer.TRUE)
    if any(r.answer is Answer.FALSE for r in results):
        return InPlaceResult(Answer.FALSE)
    checks = [c for r in results for c in r.runtime_checks]
    return InPlaceResult(
        Answer.UNKNOWN, None, checks,
        comm_set=comm_data, array_bounds=array_bounds,
    )


def evaluate_at_runtime(result: InPlaceResult, env) -> bool:
    """Run-time half of the combined algorithm (paper §3.3).

    Repeats the single dimension scan with the parameters bound — at most
    ``n + 2`` grounded predicates — which, unlike re-checking the
    compile-time branch's predicates, finds the correct pivot dimension
    for the actual parameter values.
    """
    if result.answer is Answer.TRUE:
        return True
    if result.answer is Answer.FALSE:
        return False
    comm_set, array_bounds = result.comm_set, result.array_bounds
    symbols = set(comm_set.parameters()) | set(array_bounds.parameters())
    binding = {name: env[name] for name in sorted(symbols) if name in env}
    key = (
        presburger_key(comm_set),
        presburger_key(array_bounds),
        tuple(binding.items()),
    )
    # Memoized outside, timed inside: the op counts *evaluations*, so a
    # relaunch on a warm memo reports none.
    return gate(
        None,
        lambda: gate(
            "inplace.evaluate_at_runtime",
            lambda: _grounded_verdict(comm_set, array_bounds, binding),
            len(comm_set.conjuncts),
        ),
        memo=_RUNTIME_VERDICTS.memoize,
        key=key,
    )


def _grounded_verdict(
    comm_set: IntegerSet, array_bounds: IntegerSet, binding
) -> bool:
    grounded_comm = comm_set.partial_evaluate(binding)
    grounded_bounds = array_bounds.partial_evaluate(binding)
    if len(grounded_comm.conjuncts) > 1:
        rerun = analyze_contiguity_per_message(
            grounded_comm.simplify(), grounded_bounds
        )
        return rerun.answer is Answer.TRUE
    rerun = analyze_contiguity(grounded_comm, grounded_bounds)
    return rerun.answer is Answer.TRUE
