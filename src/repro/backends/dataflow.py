"""``backends.dataflow`` — a dynamically scheduled dataflow-circuit engine.

Instead of solving for a static schedule, this backend maps every
operation to its own handshake-style unit (Dynamatic's elastic-circuit
model): values travel as tokens, an operation *fires* the cycle all its
input tokens have arrived and a memory port is free, forks replicate
tokens to multiple consumers, a per-loop mux admits one new iteration
token per cycle, and elastic buffers on loop back edges carry values
across iterations.  Nothing requests an II — the achieved II *emerges*
from simulating token flow around the circuit: successive iterations
overlap exactly as far as loop-carried dependences and memory-port
arbitration allow.

Consequences the reports make visible:

* every loop is effectively pipelined, directives or not — ``pipeline``/
  ``ii`` directives are outside this backend's vocabulary and are
  recorded as ignored rather than honoured;
* there is no functional-unit sharing: each operation owns a unit, plus
  handshake/fork/buffer overhead, so area runs higher than the static
  binder's for the same IR;
* the memory system is shared with the static backend (same
  :class:`~repro.hls.memory.MemoryModel`, same banking, same
  ports-per-bank), so ``partition`` directives matter just as much.

This module holds only what is dataflow-specific — the token simulator,
its port ledger and the handshake area model — as the hooks of the
shared loop-tree synthesizer (:func:`repro.hls.engine.synthesize_loop_tree`):
backends differ in scheduling, never in how they read the IR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..hls.binding import AreaEstimate
from ..hls.cdfg import BlockDFG, CarriedDep
from ..hls.engine import InnermostSchedule
from ..hls.memory import PORTS_PER_BANK
from ..hls.modulo import rec_mii, res_mii
from ..ir.metadata import LoopDirectives
from .base import BackendCapabilities, HLSBackend, register_backend

__all__ = ["DataflowBackend", "TokenSimResult", "simulate_tokens"]

# -- handshake-unit area model ----------------------------------------------
# Per-unit elastic control (valid/ready pair, join logic).
_HANDSHAKE_LUT = 8
_HANDSHAKE_FF = 16
# Eager fork: per extra consumer of a value.
_FORK_LUT = 4
_FORK_FF = 8
# Two-slot elastic buffer on every loop back edge (one per carried dep).
_ELASTIC_LUT = 16
_ELASTIC_FF = 32

#: Crossing a back-edge elastic buffer costs one cycle.
_BUFFER_DELAY = 1
#: Iterations simulated before extrapolating the steady-state II.
_SIM_WINDOW = 12


@dataclass
class TokenSimResult:
    """What simulating token flow around one loop body produced."""

    ii: int  # emergent steady-state initiation interval
    iteration_latency: int  # first-iteration completion time
    completions: List[int]  # completion time per simulated iteration
    simulated: int  # iterations actually simulated

    def latency(self, trip: int) -> int:
        """Total loop latency for ``trip`` iterations (+ enter/exit)."""
        if trip <= 0:
            return 1
        if trip <= self.simulated:
            return self.completions[trip - 1] + 2
        return self.completions[-1] + (trip - self.simulated) * self.ii + 2


def _carried_weight(dep: CarriedDep) -> int:
    """Token latency a carried dependence imposes (mirrors the modulo
    scheduler's weights, plus the elastic-buffer hop on the back edge)."""
    if dep.kind == "WAR":
        return _BUFFER_DELAY
    if dep.kind == "REG":
        return dep.src.latency + _BUFFER_DELAY
    return max(dep.src.latency, 1) + _BUFFER_DELAY


class _PortLedger:
    """Per-cycle memory-port arbitration across the whole simulation.

    Tokens fire in dataflow order, but a load/store still needs a free
    port on its bank that cycle; a wildcard access (bank unresolvable)
    must reserve a port on every bank of its buffer, exactly as the
    static scheduler's port table treats it."""

    def __init__(self):
        self._used: Dict[Tuple[int, int, int], int] = {}

    def acquire(self, site, ready: int) -> int:
        buffer = site.buffer
        banks = (
            list(range(buffer.banks)) if site.bank is None else [site.bank]
        )
        cycle = ready
        while True:
            if all(
                self._used.get((id(buffer), bank, cycle), 0) < PORTS_PER_BANK
                for bank in banks
            ):
                for bank in banks:
                    key = (id(buffer), bank, cycle)
                    self._used[key] = self._used.get(key, 0) + 1
                return cycle
            cycle += 1


def _topological(dfg: BlockDFG) -> List:
    """Nodes in intra-iteration dependence order (the DFG is a DAG)."""
    indegree = {id(n): 0 for n in dfg.nodes}
    for node in dfg.nodes:
        for succ, _ in node.succs:
            indegree[id(succ)] += 1
    ready = [n for n in dfg.nodes if indegree[id(n)] == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ, _ in node.succs:
            indegree[id(succ)] -= 1
            if indegree[id(succ)] == 0:
                ready.append(succ)
    return order if len(order) == len(dfg.nodes) else list(dfg.nodes)


def simulate_tokens(
    dfg: BlockDFG,
    carried: List[CarriedDep],
    trips: int,
    window: int = _SIM_WINDOW,
) -> TokenSimResult:
    """Fire tokens around the loop circuit and read off the emergent II.

    Discrete-event simulation over ``min(trips, window)`` iterations:
    operation *n* of iteration *i* fires at the earliest cycle where all
    same-iteration predecessor tokens have arrived, every carried token
    from iteration ``i - distance`` has crossed its back-edge buffer,
    the loop mux has admitted the iteration (one per cycle), and a
    memory port is free.  The steady-state II is the completion-time
    delta once successive deltas stabilise; irregular tails fall back to
    the average delta, rounded up.
    """
    order = _topological(dfg)
    carried_in: Dict[int, List[CarriedDep]] = {}
    for dep in carried:
        carried_in.setdefault(id(dep.dst), []).append(dep)

    simulated = max(1, min(trips, window))
    ports = _PortLedger()
    starts: List[Dict[int, int]] = []
    completions: List[int] = []
    for i in range(simulated):
        fire: Dict[int, int] = {}
        # The mux admits iteration i's token no earlier than cycle i.
        admitted = i
        complete = admitted
        for node in order:
            ready = admitted
            for pred, weight in node.preds:
                ready = max(ready, fire[id(pred)] + weight)
            for dep in carried_in.get(id(node), ()):
                if i >= dep.distance:
                    ready = max(
                        ready,
                        starts[i - dep.distance][id(dep.src)]
                        + _carried_weight(dep),
                    )
            if node.site is not None:
                ready = ports.acquire(node.site, ready)
            fire[id(node)] = ready
            complete = max(complete, ready + max(node.latency, 1))
        starts.append(fire)
        completions.append(complete)

    if simulated >= 2:
        deltas = [
            completions[i] - completions[i - 1] for i in range(1, simulated)
        ]
        tail = deltas[-min(3, len(deltas)):]
        if len(set(tail)) == 1:
            ii = max(1, tail[0])
        else:
            ii = max(1, -(-sum(deltas) // len(deltas)))
    else:
        ii = max(1, completions[0])
    return TokenSimResult(
        ii=ii,
        iteration_latency=max(1, completions[0]),
        completions=completions,
        simulated=simulated,
    )


@register_backend
class DataflowBackend(HLSBackend):
    """Dynamically scheduled handshake circuits; II emerges from token
    flow, every operation owns its unit."""

    id = "dataflow"
    capabilities = BackendCapabilities(
        scheduling="dynamic",
        directives=("unroll", "partition"),
        respects_ii=False,
        shares_functional_units=False,
    )
    # Function-level start/done handshake (cheaper than a central FSM);
    # per loop, the entry mux plus iteration-token regeneration.
    FUNCTION_CONTROL = (120, 160)
    LOOP_CONTROL = (30, 40)

    def overlaps_innermost(self, directives: LoopDirectives) -> bool:
        return True  # iteration overlap is the default here

    def schedule_innermost(
        self,
        dfg: BlockDFG,
        carried: List[CarriedDep],
        directives: LoopDirectives,
        eff_trip_min: int,
        eff_trip_max: int,
    ) -> InnermostSchedule:
        sim = simulate_tokens(dfg, carried, max(eff_trip_max, 1))
        return InnermostSchedule(
            iteration_latency=sim.iteration_latency,
            ii=sim.ii,
            latency_min=sim.latency(eff_trip_min),
            latency_max=sim.latency(eff_trip_max),
            # Diagnostics, not inputs: the port bound and the recurrence
            # bound the emergent II is squeezed between.
            res_mii=res_mii(dfg),
            rec_mii=rec_mii(dfg, carried),
            area=self._circuit_area(dfg, carried),
        )

    def block_cost(self, dfg: BlockDFG) -> Tuple[int, AreaEstimate]:
        """A straight-line block costs its token critical path."""
        sim = simulate_tokens(dfg, [], trips=1)
        return sim.iteration_latency, self._circuit_area(dfg, [])

    # -- area ---------------------------------------------------------------
    def _circuit_area(
        self, dfg: BlockDFG, carried: List[CarriedDep]
    ) -> AreaEstimate:
        """Dedicated units, handshake overhead, forks, elastic buffers.

        No sharing: every node pays its full operator area.  memport
        nodes carry no operator area (the memory model budgets BRAM) but
        still pay handshake control."""
        area = AreaEstimate()
        for node in dfg.nodes:
            spec = self.library.spec_for(node.inst)
            area.lut += spec.lut + _HANDSHAKE_LUT
            area.ff += spec.ff + _HANDSHAKE_FF
            area.dsp += spec.dsp
            if spec.resource_class and spec.resource_class != "memport":
                area.fu_instances[spec.resource_class] = (
                    area.fu_instances.get(spec.resource_class, 0) + 1
                )
            extra_consumers = max(0, len(node.succs) - 1)
            area.lut += _FORK_LUT * extra_consumers
            area.ff += _FORK_FF * extra_consumers
        area.lut += _ELASTIC_LUT * len(carried)
        area.ff += _ELASTIC_FF * len(carried)
        return area
