"""The communication-set equations of paper Figure 3.

Given a *logical communication event* — a set of coalesced references to a
common array, a placement level ``v`` (the communication has been vectorized
out of all loops deeper than ``v``), and the CP map of each reference's
statement — these equations produce ``SendCommMap(m)`` and
``RecvCommMap(m)``: what the executing processor must send to / receive
from every partner ``p``.

The equation numbering in comments matches Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isets import (
    Constraint,
    IntegerMap,
    IntegerSet,
    LinExpr,
)
from ..hpf.layout import Layout
from .context import Reference, StmtContext
from .cp import CPInfo
from .refmap import reference_map


@dataclass
class EventRef:
    """One reference participating in a communication event."""

    cp: CPInfo
    reference: Reference

    @property
    def is_write(self) -> bool:
        return self.reference.is_write


@dataclass
class CommEvent:
    """A logical communication event (vectorized + coalesced messages)."""

    array: str
    layout: Layout
    level: int  # number of outer loops the comm stays inside
    refs: List[EventRef]
    #: names of the outer loop index symbols J1..Jv the sets stay
    #: parameterized by (current iteration of non-vectorized loops).
    outer_symbols: Tuple[str, ...] = ()

    @property
    def reads(self) -> List[EventRef]:
        return [r for r in self.refs if not r.is_write]

    @property
    def writes(self) -> List[EventRef]:
        return [r for r in self.refs if r.is_write]


@dataclass
class CommSets:
    """Results of the Figure 3 equations for one event."""

    event: CommEvent
    data_accessed: Dict[str, IntegerMap]       # t -> {[p] -> [a]}
    nl_data_set: Dict[str, IntegerSet]         # t -> non-local data of m
    nl_comm_map: Dict[str, IntegerMap]         # t -> {[p] -> [a]} (eq 4)
    local_comm_map: Dict[str, IntegerMap]      # t -> {[p] -> [a]} (eq 5)
    send_comm_map: IntegerMap                  # eq 6, partner != m
    recv_comm_map: IntegerMap                  # eq 7, partner != m
    #: eqs 6/7 before the self-exclusion: what codegen and the §3.3 check
    #: scan.  Restricted to any partner q != m it equals the exact map at
    #: q, and the emitter's rank guard skips q == m.
    send_scan_map: IntegerMap
    recv_scan_map: IntegerMap

    def has_communication(self) -> bool:
        return not (
            self.send_comm_map.is_empty() and self.recv_comm_map.is_empty()
        )


def _restricted_cp_map(
    event_ref: EventRef, level: int, outer_symbols: Sequence[str]
) -> IntegerMap:
    """Equation (1): fix the first ``level`` loop indices to symbols J*."""
    cp_map = event_ref.cp.cp_map
    iter_dims = cp_map.out_dims
    constraints = [
        Constraint.eq(LinExpr.var(dim), LinExpr.var(symbol))
        for dim, symbol in zip(iter_dims[:level], outer_symbols[:level])
    ]
    return cp_map.constrain(constraints)


def compute_comm_sets(event: CommEvent) -> CommSets:
    """Run equations (1)-(7) of Figure 3 for the event."""
    layout = event.layout
    my_binding = dict(zip(layout.proc_dims, layout.grid.my_names))

    # (2) DataAccessed_t = ∪_r CPMap_r^v ∘ RefMap_r
    data_accessed: Dict[str, Optional[IntegerMap]] = {
        "read": None, "write": None
    }
    for event_ref in event.refs:
        kind = "write" if event_ref.is_write else "read"
        cp_v = _restricted_cp_map(event_ref, event.level, event.outer_symbols)
        ref_map = reference_map(
            event_ref.cp.context, event_ref.reference, layout
        )
        accessed = cp_v.then(ref_map)
        current = data_accessed[kind]
        data_accessed[kind] = (
            accessed if current is None else current.union(accessed)
        )

    local_data = layout.local_set()  # Layout_A({m})
    nl_data_set: Dict[str, IntegerSet] = {}
    nl_comm_map: Dict[str, IntegerMap] = {}
    local_comm_map: Dict[str, IntegerMap] = {}
    for kind in ("read", "write"):
        accessed = data_accessed[kind]
        if accessed is None:
            empty_map = IntegerMap.empty(layout.proc_dims, layout.data_dims)
            nl_data_set[kind] = IntegerSet.empty(layout.data_dims)
            nl_comm_map[kind] = empty_map
            local_comm_map[kind] = empty_map
            continue
        accessed = accessed.simplify()
        # (3) nlDataSet_t(m): off-processor data accessed by m.
        accessed_by_me = accessed.fix_input(my_binding).range().simplify()
        if kind == "read":
            nl_mine = accessed_by_me.subtract(local_data)
        else:
            # Writes: data owned by one or more *other* processors (for
            # replicated layouts this catches copies m must update even
            # when m also owns one; the two cases coincide otherwise —
            # paper Figure 3, footnote 2).
            owned_elsewhere = (
                layout.map.restrict_domain(_not_me_set(layout))
                .range()
                .simplify()
            )
            nl_mine = accessed_by_me.intersect(owned_elsewhere)
        nl_mine = nl_mine.simplify()
        nl_data_set[kind] = nl_mine
        # (4) NLCommMap_t(m) = Layout ∩_range nlDataSet_t(m)
        nl_comm_map[kind] = layout.map.restrict_range(nl_mine).simplify()
        # (5) LocalCommMap_t(m) = DataAccessed_t ∩_range Layout({m})
        local_comm_map[kind] = accessed.restrict_range(
            local_data
        ).simplify()

    # (6) SendCommMap(m) = LocalCommMap_read(m) ∪ NLCommMap_write(m)
    send = local_comm_map["read"].union(nl_comm_map["write"]).simplify()
    # (7) RecvCommMap(m) = NLCommMap_read(m) ∪ LocalCommMap_write(m)
    recv = nl_comm_map["read"].union(local_comm_map["write"]).simplify()

    return CommSets(
        event=event,
        data_accessed={
            k: v if v is not None
            else IntegerMap.empty(layout.proc_dims, layout.data_dims)
            for k, v in data_accessed.items()
        },
        nl_data_set=nl_data_set,
        nl_comm_map=nl_comm_map,
        local_comm_map=local_comm_map,
        # A processor never communicates with itself: drop p == m pairs.
        send_comm_map=_exclude_self(send, layout),
        recv_comm_map=_exclude_self(recv, layout),
        send_scan_map=send,
        recv_scan_map=recv,
    )


def _not_me_set(layout: Layout) -> IntegerSet:
    """Processor tuples different from the executing processor."""
    diagonal = IntegerSet.from_constraints(
        layout.proc_dims,
        [
            Constraint.eq(LinExpr.var(dim), LinExpr.var(symbol))
            for dim, symbol in zip(layout.proc_dims, layout.grid.my_names)
        ],
    )
    return IntegerSet.universe(layout.proc_dims).subtract(diagonal)


def _exclude_self(comm_map: IntegerMap, layout: Layout) -> IntegerMap:
    """Remove pairs where the partner is the executing processor itself.

    Exact (difference of the diagonal), at the cost of splitting each
    conjunct into "partner < me" / "partner > me" pieces per grid dim.
    The result decides *whether* and *when* anyone talks; codegen and
    the §3.3 check scan the self-inclusive map instead, and the emitted
    ``_qrank == rt.rank`` guard removes the self pairs at run time.
    """
    diagonal = IntegerSet.from_constraints(
        comm_map.in_dims,
        [
            Constraint.eq(LinExpr.var(dim), LinExpr.var(symbol))
            for dim, symbol in zip(
                comm_map.in_dims, layout.grid.my_names
            )
        ],
    )
    not_self = IntegerSet.universe(comm_map.in_dims).subtract(diagonal)
    return comm_map.restrict_domain(not_self).simplify()
