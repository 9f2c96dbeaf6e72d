"""Active virtual-processor sets (paper Section 4.1, Figure 5).

For cyclic / cyclic(k) distributions under a symbolic processor count,
every physical processor owns many virtual processors, but not all of them
are *active* in a given computation or communication.  These equations
compute, across all processors:

* ``busyVPSet``   — VPs executing any iteration (domain of CPMap);
* ``activeSendVPSet`` — VPs that must send data;
* ``activeRecvVPSet`` — VPs that must receive data;

code generation then restricts each VP loop to the active VPs owned by
``myid``, eliminating or reducing run-time checks (the refinement over
SUIF/Gupta et al. the paper claims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..isets import IntegerMap, IntegerSet
from ..hpf.layout import Layout
from .commsets import CommEvent, CommSets, _restricted_cp_map
from .cp import CPInfo
from .refmap import reference_map


@dataclass
class ActiveVPSets:
    """Results of the Figure 5(a) equations for one communication event."""

    busy_vp: Dict[str, IntegerSet]        # per kind: read / write
    active_send_vp: IntegerSet
    active_recv_vp: IntegerSet


def busy_vp_set(
    cp_maps: Sequence[Union[CPInfo, IntegerMap]], proc_dims=()
) -> IntegerSet:
    """``busyVPSet = ∪ Domain(CPMap_r)`` for a partitioned computation.

    ``cp_maps`` are CP maps, or the :class:`CPInfo` holding them; no map
    at all gives the empty set over ``proc_dims``.
    """
    result: Optional[IntegerSet] = None
    for cp_map in cp_maps:
        if isinstance(cp_map, CPInfo):
            cp_map = cp_map.cp_map
        domain = cp_map.domain()
        result = domain if result is None else result.union(domain)
    if result is None:
        return IntegerSet.empty(proc_dims)
    return result.simplify()


def compute_active_vp_sets(event: CommEvent) -> ActiveVPSets:
    """Figure 5(a): active senders/receivers for one communication event."""
    layout = event.layout

    busy: Dict[str, IntegerSet] = {}
    nl_accessed: Dict[str, Optional[IntegerMap]] = {
        "read": None, "write": None
    }
    for kind in ("read", "write"):
        refs = event.reads if kind == "read" else event.writes
        cp_maps = []
        for event_ref in refs:
            cp_v = _restricted_cp_map(
                event_ref, event.level, event.outer_symbols
            )
            cp_maps.append(cp_v)
            ref_map = reference_map(
                event_ref.cp.context, event_ref.reference, layout
            )
            accessed = cp_v.then(ref_map)
            current = nl_accessed[kind]
            nl_accessed[kind] = (
                accessed if current is None else current.union(accessed)
            )
        busy[kind] = busy_vp_set(cp_maps, layout.proc_dims)

    owns_nl: Dict[str, IntegerSet] = {}
    accesses_nl: Dict[str, IntegerSet] = {}
    for kind in ("read", "write"):
        accessed = nl_accessed[kind]
        if accessed is None:
            owns_nl[kind] = IntegerSet.empty(layout.proc_dims)
            accesses_nl[kind] = IntegerSet.empty(layout.proc_dims)
            continue
        # NLDataAccessed_t as a map: accessed minus owned, per processor.
        nl_map = accessed.subtract(layout.map).simplify()
        # allNLDataSet_t = NLDataAccessed_t(busyVPSet_t)
        all_nl_data = nl_map.apply(busy[kind]).simplify()
        # vpsThatOwnNLData_t = Layout^{-1}(allNLDataSet_t)
        owns_nl[kind] = layout.map.inverse().apply(all_nl_data).simplify()
        # vpsThatAccessNLData_t = Domain(NLDataAccessed_t)
        accesses_nl[kind] = nl_map.domain().simplify()

    active_send = owns_nl["read"].union(accesses_nl["write"]).simplify()
    active_recv = accesses_nl["read"].union(owns_nl["write"]).simplify()
    return ActiveVPSets(busy, active_send, active_recv)
