"""Directed-graph algorithms for the task-graph scheduler.

Small, dependency-free, and deliberately generic: the planner
(:mod:`repro.runtime.taskgraph.lower`) feeds these adjacency lists built
from statement-level dependence conflicts, and the property tests feed
them random digraphs checked against brute-force oracles.

``tarjan_scc`` is the iterative (explicit-stack) formulation of Tarjan's
strongly-connected-components algorithm, so pathological template graphs
cannot hit the interpreter recursion limit.  Component order is reverse
topological (every edge leaving a component points to an
*earlier-emitted* component), which :func:`condense` then flips into the
forward topological order schedulers want.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["tarjan_scc", "condense"]


def tarjan_scc(n: int, adj: Sequence[Sequence[int]]) -> List[List[int]]:
    """Strongly connected components of the digraph ``0..n-1``.

    ``adj[u]`` lists successors of ``u``.  Returns components in reverse
    topological order; each component lists its members in ascending
    order (stable across runs — determinism is load-bearing, the plan
    hash covers it).
    """
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 1  # 0 means "unvisited" in ``index``

    for root in range(n):
        if visited[root]:
            continue
        # (node, iterator position) work stack replaces recursion.
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                visited[node] = True
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            successors = adj[node]
            while pos < len(successors):
                succ = successors[pos]
                pos += 1
                if not visited[succ]:
                    work.append((node, pos))
                    work.append((succ, 0))
                    recurse = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if recurse:
                continue
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                component.sort()
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def condense(
    n: int, adj: Sequence[Sequence[int]]
) -> Tuple[List[int], List[List[int]], List[List[int]]]:
    """Collapse cycles: the SCC condensation as a DAG.

    Returns ``(comp_of, members, comp_adj)`` where ``comp_of[u]`` is the
    component id of node ``u``, ``members[c]`` lists the nodes of
    component ``c`` (ascending), and ``comp_adj[c]`` the distinct
    successor components (ascending, self-loops removed).  Components
    are numbered in forward topological order: every edge satisfies
    ``comp_of[u] <= comp_of[v]``.
    """
    components = tarjan_scc(n, adj)
    components.reverse()  # forward topological order
    comp_of = [0] * n
    for cid, members in enumerate(components):
        for node in members:
            comp_of[node] = cid
    comp_adj: List[List[int]] = []
    for cid, members in enumerate(components):
        succs = {
            comp_of[v]
            for u in members
            for v in adj[u]
            if comp_of[v] != cid
        }
        comp_adj.append(sorted(succs))
    return comp_of, components, comp_adj
