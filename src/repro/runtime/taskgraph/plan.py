"""Picklable task-plan representation.

A :class:`TaskPlan` is everything the work-stealing scheduler needs to
execute one SPMD launch as a statement-instance DAG: the work units
(each carrying the Python source of one generated-program segment), the
dependence edges between them, and the SCC condensation metadata from
the template graph.  Everything is plain strings / ints / tuples so a
plan can ship to out-of-process workers exactly like the
:class:`~repro.runtime.backends.base.LaunchSpec` it rides in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

__all__ = ["TaskUnit", "TaskPlan"]


@dataclass
class TaskUnit:
    """One (statement segment, iteration instance, rank) work unit.

    ``code`` is the compiled program fragment this unit executes in its
    rank's shared namespace; ``kind`` drives scheduling policy:

    ``send``
        Gathers and enqueues section messages — never blocks.
    ``recv``
        Consumes messages; *gated*: made ready only after every
        same-tag/same-instance send unit completed and the simulated
        arrival time passed, so it never occupies a worker waiting.
    ``collective``
        Blocks at a rendezvous; forces pool size >= nprocs.
    ``call``
        Whole-procedure call (plan-less fallback, sp-like routines);
        conservatively conflicts with everything and may block.
    ``compute`` / ``admin``
        Kernel pieces, work-counter flushes, prelude bindings.
    """

    uid: int
    rank: int
    kind: str  # compute | send | recv | collective | call | admin
    code: str
    label: str
    #: communication event tag ('' when not a comm unit).
    tag: str = ""
    #: phase-loop iteration instance (0 outside unrolled loops).
    instance: int = 0
    #: template statement id this unit instantiates.
    template: int = -1
    #: SCC id of the template statement in the condensed template DAG.
    scc: int = -1


@dataclass
class TaskPlan:
    """A complete launch plan: units, DAG edges, condensation metadata."""

    nprocs: int
    units: List[TaskUnit]
    #: instance-DAG edges (pred uid, succ uid), deduplicated and sorted.
    edges: List[Tuple[int, int]]
    #: number of template statements and of SCCs after condensation.
    template_count: int = 0
    scc_count: int = 0
    #: template SCC members (template ids), forward topological order.
    scc_members: List[Tuple[int, ...]] = field(default_factory=list)
    #: cycles collapsed (SCCs with more than one member).
    cycles_collapsed: int = 0
    #: phase loops unrolled into per-iteration instances.
    loops_unrolled: int = 0
    #: why planning degraded (empty when fully segmented).
    notes: List[str] = field(default_factory=list)

    # Everything below is a function of ``units`` and ``edges`` alone.
    # A plan is built once and launched many times (the backend caches
    # it), so these are computed here, at build, and the scheduler only
    # reads them: a plan must not be mutated after construction.

    #: receives made ready only after every same-tag/same-instance send
    #: unit completed (see :class:`TaskUnit`).
    gated: FrozenSet[int] = field(init=False, repr=False, compare=False)
    #: True when some unit may block (collectives, call units, ungated
    #: receives): the scheduler must then run at least ``nprocs`` workers.
    needs_rank_parallel_pool: bool = field(init=False, compare=False)
    #: a topological order of the instance DAG (uids are rank-major, so
    #: numeric order is *not* topological across cross-rank edges).
    topo_order: Tuple[int, ...] = field(
        init=False, repr=False, compare=False
    )
    #: edge distance from each unit to its nearest downstream comm unit
    #: (``len(units) + 1`` when there is none) — the scheduler's priority.
    comm_distance: Tuple[int, ...] = field(
        init=False, repr=False, compare=False
    )
    #: longest dependence chain, in units.
    critical_path_units: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        units = self.units
        n = len(units)
        send_keys = {
            (u.tag, u.instance) for u in units if u.kind == "send" and u.tag
        }
        self.gated = frozenset(
            u.uid
            for u in units
            if u.kind == "recv" and u.tag and (u.tag, u.instance) in send_keys
        )
        self.needs_rank_parallel_pool = any(
            u.kind in ("collective", "mixed", "call")
            or (u.kind == "recv" and u.uid not in self.gated)
            for u in units
        )

        succs: List[List[int]] = [[] for _ in units]
        indeg = [0] * n
        for pred, succ in self.edges:
            succs[pred].append(succ)
            indeg[succ] += 1
        self._succs = tuple(tuple(sorted(row)) for row in succs)
        self._indeg = tuple(indeg)

        order = [uid for uid in range(n) if indeg[uid] == 0]
        depth = [1] * n
        for uid in order:  # Kahn; `order` grows while iterating
            for succ in self._succs[uid]:
                if depth[uid] + 1 > depth[succ]:
                    depth[succ] = depth[uid] + 1
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    order.append(succ)
        self.topo_order = tuple(order)
        self.critical_path_units = max(depth, default=0) if order else 0

        # Sends start latency clocks: every cycle a message spends in
        # flight while the scheduler still has local compute queued is
        # latency that could have been hidden, so the unit closest to
        # unblocking a send (or a receive) should run first and bulk
        # compute fill the flight time.
        dist = [n + 1] * n
        for uid in reversed(order):
            if units[uid].kind in ("send", "recv", "mixed", "collective"):
                dist[uid] = 0
                continue
            for succ in self._succs[uid]:
                if dist[succ] + 1 < dist[uid]:
                    dist[uid] = dist[succ] + 1
        self.comm_distance = tuple(dist)

        h = hashlib.sha256()
        h.update(
            "".join(
                f"{u.uid}|{u.rank}|{u.kind}|{u.label}|{u.tag}|"
                f"{u.instance}|{u.template}|{u.scc}\n"
                for u in units
            ).encode()
        )
        h.update(
            "".join(
                f"{pred}->{succ}\n" for pred, succ in sorted(self.edges)
            ).encode()
        )
        self._topo_hash = h.hexdigest()

    def topo_hash(self) -> str:
        """Stable fingerprint of the graph structure (determinism tests).

        Hashes unit identities (rank, kind, label, tag, instance,
        template, scc) and the sorted edge list — everything except the
        code bodies, which the artifact sha already pins.
        """
        return self._topo_hash

    def successors(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-unit successor uids, ascending (shared, immutable)."""
        return self._succs

    def indegrees(self) -> List[int]:
        """A fresh per-unit in-degree list the caller may count down."""
        return list(self._indeg)

    def stats(self) -> Dict[str, int]:
        kinds: Dict[str, int] = {}
        for unit in self.units:
            kinds[unit.kind] = kinds.get(unit.kind, 0) + 1
        return {
            "units": len(self.units),
            "edges": len(self.edges),
            "templates": self.template_count,
            "sccs": self.scc_count,
            "cycles_collapsed": self.cycles_collapsed,
            "loops_unrolled": self.loops_unrolled,
            **{f"units_{kind}": n for kind, n in sorted(kinds.items())},
        }
