"""Resource-constrained list scheduling for straight-line block DFGs.

Cycle-by-cycle list scheduling with:

* def-use readiness (a consumer starts once every producer's result is
  available; zero-latency producers chain within the same cycle);
* memory-port constraints — :class:`~repro.hls.memory.PortLedger`'s rule:
  at most ``PORTS_PER_BANK`` accesses per (buffer, bank) per cycle, a
  bank-unknown access taking a port on every bank of its buffer.

Functional units are unconstrained at scheduling time (Vitis default);
binding counts the instances the schedule actually needs afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .cdfg import BlockDFG, DFGNode
from .memory import PortLedger

__all__ = ["BlockSchedule", "list_schedule"]


@dataclass
class BlockSchedule:
    """Start cycle per node plus the derived block latency."""

    starts: Dict[int, int] = field(default_factory=dict)  # id(node) -> cycle
    length: int = 0  # cycles until every result is available

    def start_of(self, node: DFGNode) -> int:
        return self.starts[id(node)]


def list_schedule(dfg: BlockDFG, max_cycles: int = 1_000_000) -> BlockSchedule:
    schedule = BlockSchedule()
    if not dfg.nodes:
        schedule.length = 1
        return schedule

    remaining = {id(n): len(n.preds) for n in dfg.nodes}
    earliest: Dict[int, int] = {id(n): 0 for n in dfg.nodes}
    # Priority: critical-path height (longest path to any sink).
    height: Dict[int, int] = {}

    def compute_height(node: DFGNode) -> int:
        key = id(node)
        if key in height:
            return height[key]
        height[key] = 0  # cycle guard
        h = max((w + compute_height(s) for s, w in node.succs), default=0)
        height[key] = h + max(node.latency, 0)
        return height[key]

    for node in dfg.nodes:
        compute_height(node)

    ready: List[DFGNode] = [n for n in dfg.nodes if remaining[id(n)] == 0]
    unscheduled = len(dfg.nodes)
    ports = PortLedger()
    cycle = 0
    while unscheduled and cycle < max_cycles:
        # Loop until no more nodes fit this cycle (zero-latency chaining can
        # make new nodes ready within the same cycle).
        progressed = True
        while progressed:
            progressed = False
            ready.sort(key=lambda n: (-height[id(n)], n.index))
            for node in list(ready):
                if earliest[id(node)] > cycle:
                    continue
                site = node.site
                if site is not None and ports.acquire(site, cycle, tries=1) is None:
                    continue
                schedule.starts[id(node)] = cycle
                unscheduled -= 1
                ready.remove(node)
                progressed = True
                for succ, weight in node.succs:
                    skey = id(succ)
                    earliest[skey] = max(earliest[skey], cycle + weight)
                    remaining[skey] -= 1
                    if remaining[skey] == 0:
                        ready.append(succ)
        cycle += 1
    if unscheduled:
        raise RuntimeError("list scheduler failed to converge (cyclic block DFG?)")

    schedule.length = max(
        (schedule.starts[id(n)] + max(n.latency, 1) for n in dfg.nodes),
        default=1,
    )
    return schedule
