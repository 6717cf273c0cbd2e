"""Iterative modulo scheduling for pipelined loops (Rau-style).

Computes the achievable initiation interval of a loop body:

* **ResMII** — memory-port pressure: per (buffer, bank), accesses / ports.
* **RecMII** — recurrence bound: for every dependence cycle through
  loop-carried edges, ``ceil(total latency / total distance)``; found by
  cycle-ratio jumps on the constraint graph (edge weight
  ``latency(u) - II * distance(u,v)``), see :func:`_rec_mii`.
* **Schedule feasibility** — greedy modulo list scheduling against a modulo
  reservation table of memory ports (a :class:`PortLedger` with ``II``
  slots); II is bumped until a legal schedule exists (bounded by the
  sequential body length, which always succeeds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cdfg import BlockDFG, CarriedDep, DFGNode
from .memory import PORTS_PER_BANK, PortLedger, port_banks
from .schedule import list_schedule

__all__ = ["ModuloSchedule", "carried_weight", "modulo_schedule", "res_mii", "rec_mii"]


@dataclass
class ModuloSchedule:
    ii: int
    length: int  # iteration latency (IL)
    starts: Dict[int, int] = field(default_factory=dict)
    res_mii: int = 1
    rec_mii: int = 1


def carried_weight(dep: CarriedDep) -> int:
    """Latency a carried dependence imposes across its distance.

    WAR needs no latency (the later write just must not overtake the read);
    REG recurrences impose exactly the producer latency (0-latency integer
    chains stay free); memory RAW/WAW need at least the one-cycle store.
    """
    if dep.kind == "WAR":
        return 0
    if dep.kind == "REG":
        return dep.src.latency
    return max(dep.src.latency, 1)


def res_mii(dfg: BlockDFG) -> int:
    """Memory-port lower bound on II: the busiest bank's accesses per
    iteration over its ports, banks taken as :class:`PortLedger` takes them."""
    demand: Dict[Tuple[int, int], int] = {}
    for node in dfg.nodes:
        if node.site is not None:
            buf = id(node.site.buffer)
            for bank in port_banks(node.site):
                demand[buf, bank] = demand.get((buf, bank), 0) + 1
    return max((-(-n // PORTS_PER_BANK) for n in demand.values()), default=1)


# A constraint edge ``(u, v, latency, distance)`` over node indices: node
# ``v`` starts at least ``latency - II * distance`` cycles after node ``u``.
Edge = Tuple[int, int, int, int]


def _constraint_edges(dfg: BlockDFG, carried: List[CarriedDep]) -> List[Edge]:
    """Intra-iteration edges (distance 0), then the loop-carried ones.
    Built once per loop body, for RecMII and every II the scheduler tries."""
    index = {id(n): i for i, n in enumerate(dfg.nodes)}
    edges: List[Edge] = [
        (index[id(node)], index[id(succ)], weight, 0)
        for node in dfg.nodes
        for succ, weight in node.succs
    ]
    edges.extend(
        (index[id(dep.src)], index[id(dep.dst)], carried_weight(dep), dep.distance)
        for dep in carried
    )
    return edges


def _parent_cycle(parent: List[int], edges: List[Edge]) -> Optional[Tuple[int, int]]:
    """``(total latency, total distance)`` of a cycle among the parent
    pointers (``parent[v]`` is the index of the edge that last raised
    ``v``), or None when they form a forest."""
    seen = [0] * len(parent)
    for root in range(len(parent)):
        v = root
        while v >= 0 and not seen[v]:
            seen[v] = root + 1
            k = parent[v]
            v = edges[k][0] if k >= 0 else -1
        if v < 0 or seen[v] != root + 1:
            continue
        latency = distance = 0
        u = v
        while True:
            u, _dst, lat, d = edges[parent[u]]
            latency += lat
            distance += d
            if u == v:
                return latency, distance
    return None


def _relax(
    edges: List[Edge], ii: int, base: List[int]
) -> Tuple[Optional[List[int]], Optional[Tuple[int, int]]]:
    """Longest-path start times at ``ii``, raised from ``base``.

    Returns ``(starts, None)`` at the fixpoint, or ``(None, (latency,
    distance))`` of a cycle in the parent graph.  Such a cycle is positive
    (each of its edges was tight when set, and the last one set raised its
    target strictly), so ``ii`` is infeasible.  The loop ends: while the
    parent graph stays a forest each start is bounded by a simple path's
    weight, and every round raises one.
    """
    dist = list(base)
    parent = [-1] * len(dist)
    weighted = [(k, u, v, lat - ii * d) for k, (u, v, lat, d) in enumerate(edges)]
    while True:
        changed = False
        for k, u, v, w in weighted:
            cand = dist[u] + w
            if cand > dist[v]:
                dist[v] = cand
                parent[v] = k
                changed = True
        if not changed:
            return dist, None
        cycle = _parent_cycle(parent, edges)
        if cycle is not None:
            return None, cycle


def _rec_mii(edges: List[Edge], n: int, max_ii: int) -> int:
    """Smallest II >= 1 with no positive cycle, capped at ``max_ii``.

    A relaxation at ``ii`` either converges (``ii`` is feasible) or yields
    a positive cycle: ``latency > ii * distance``, so its bound
    ``ceil(latency / distance)`` exceeds ``ii`` and no II below it is
    feasible.  Jumping there skips only infeasible IIs and lands on a real
    cycle's bound, so the first feasible II is RecMII exactly.  A cycle
    without a carried edge (distance 0) is infeasible at every II.
    """
    ii = 1
    while ii < max_ii:
        _starts, cycle = _relax(edges, ii, [0] * n)
        if cycle is None:
            return ii
        latency, distance = cycle
        ii = min(max_ii, -(-latency // distance)) if distance else max_ii
    return ii


def rec_mii(dfg: BlockDFG, carried: List[CarriedDep], max_ii: int = 4096) -> int:
    """Smallest II with no positive cycle in the dependence constraint graph
    (capped at ``max_ii``)."""
    if not carried:
        return 1
    return _rec_mii(_constraint_edges(dfg, carried), len(dfg.nodes), max_ii)


def modulo_schedule(
    dfg: BlockDFG,
    carried: List[CarriedDep],
    target_ii: Optional[int] = None,
    max_ii: int = 4096,
) -> ModuloSchedule:
    """Find the smallest legal II >= max(ResMII, RecMII, target) and a
    schedule honouring it."""
    rmii = res_mii(dfg)
    edges = _constraint_edges(dfg, carried)
    cmii = _rec_mii(edges, len(dfg.nodes), max_ii) if carried else 1
    ii = max(rmii, cmii, target_ii or 1)
    while ii <= max_ii:
        starts = _try_schedule(dfg, edges, ii)
        if starts is not None:
            length = max(
                (starts[id(n)] + max(n.latency, 1) for n in dfg.nodes), default=1
            )
            return ModuloSchedule(ii, length, starts, rmii, cmii)
        ii += 1
    # Give up: sequential fallback (always legal: II = body length).
    seq = list_schedule(dfg)
    return ModuloSchedule(seq.length, seq.length, dict(seq.starts), rmii, cmii)


def _try_schedule(
    dfg: BlockDFG, edges: List[Edge], ii: int
) -> Optional[Dict[int, int]]:
    """Modulo scheduling at a fixed II: longest-path start-time relaxation
    over the constraint graph, then greedy port placement on the modulo
    reservation table, then revalidation."""
    nodes = dfg.nodes
    if not nodes:
        return {}
    earliest, _cycle = _relax(edges, ii, [0] * len(nodes))
    if earliest is None:
        return None
    # Anchor at zero (offsets may go negative after carried relaxation).
    low = min(earliest)
    earliest = [e - low for e in earliest]

    # Greedy MRT placement in earliest order; pushed nodes re-relax once.
    for _iteration in range(3):
        order = sorted(range(len(nodes)), key=lambda i: (earliest[i], i))
        mrt = PortLedger(period=ii)
        placed = list(earliest)
        for i in order:
            site = nodes[i].site
            if site is not None:
                t = mrt.acquire(site, placed[i], tries=ii)
                if t is None:
                    return None
                placed[i] = t
        # Check every constraint under the placed schedule.
        if all(placed[u] + lat - ii * d <= placed[v] for u, v, lat, d in edges):
            return {id(nodes[i]): placed[i] for i in range(len(nodes))}
        # Feed placements back as lower bounds and re-relax.
        earliest, _cycle = _relax(edges, ii, placed)
        if earliest is None:
            return None
    return None
