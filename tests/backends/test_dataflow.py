"""Unit tests for the dataflow backend's token-flow simulation:
determinism, emergent II, port arbitration, latency extrapolation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.backends.dataflow import TokenSimResult, simulate_tokens
from repro.hls.memory import PORTS_PER_BANK, PortLedger


@dataclass
class FakeBuffer:
    banks: int = 1


@dataclass
class FakeSite:
    buffer: FakeBuffer
    bank: Optional[int] = 0


@dataclass
class FakeNode:
    latency: int = 1
    preds: List[Tuple["FakeNode", int]] = field(default_factory=list)
    succs: List[Tuple["FakeNode", int]] = field(default_factory=list)
    site: Optional[FakeSite] = None


@dataclass
class FakeDep:
    src: FakeNode
    dst: FakeNode
    distance: int = 1
    kind: str = "RAW"


@dataclass
class FakeDFG:
    nodes: List[FakeNode]


def chain(*latencies: int) -> FakeDFG:
    nodes = [FakeNode(latency=l) for l in latencies]
    for prev, nxt in zip(nodes, nodes[1:]):
        prev.succs.append((nxt, prev.latency))
        nxt.preds.append((prev, prev.latency))
    return FakeDFG(nodes)


class TestEmergentII:
    def test_independent_iterations_reach_ii_one(self):
        # No carried deps, no memory: the mux's one-admission-per-cycle
        # is the only serialisation, so iterations overlap at II=1.
        sim = simulate_tokens(chain(1, 2, 1), [], trips=20)
        assert sim.ii == 1
        assert sim.iteration_latency == 4  # 1 + 2 + 1

    def test_carried_dependence_sets_the_ii(self):
        # dst must wait for src's token from the previous iteration to
        # cross the back-edge buffer: II = src latency + buffer hop.
        dfg = chain(1, 2, 1)
        dep = FakeDep(src=dfg.nodes[2], dst=dfg.nodes[0], distance=1)
        sim = simulate_tokens(dfg, [dep], trips=20)
        # src fires at t+3 (after the 1- and 2-latency preds), weight is
        # max(latency,1)+1 = 2, so iteration i starts at start(i-1)+5.
        assert sim.ii == 5

    def test_war_dependence_is_one_buffer_hop(self):
        dfg = chain(1, 1)
        dep = FakeDep(src=dfg.nodes[0], dst=dfg.nodes[0], kind="WAR")
        sim = simulate_tokens(dfg, [dep], trips=20)
        assert sim.ii == 1  # WAR costs only the elastic-buffer cycle

    def test_distance_two_halves_the_pressure(self):
        dfg = chain(4)
        near = FakeDep(src=dfg.nodes[0], dst=dfg.nodes[0], distance=1)
        far = FakeDep(src=dfg.nodes[0], dst=dfg.nodes[0], distance=2)
        ii_near = simulate_tokens(dfg, [near], trips=20).ii
        ii_far = simulate_tokens(dfg, [far], trips=20).ii
        assert ii_near == 5  # latency 4 + buffer hop
        assert ii_far < ii_near  # the token has two iterations to arrive


class TestPortArbitration:
    def test_ledger_serialises_past_the_port_bound(self):
        ledger = PortLedger()
        site = FakeSite(FakeBuffer(banks=1), bank=0)
        grants = [ledger.acquire(site, 0) for _ in range(PORTS_PER_BANK + 1)]
        assert grants[:PORTS_PER_BANK] == [0] * PORTS_PER_BANK
        assert grants[PORTS_PER_BANK] == 1  # third access waits a cycle

    def test_wildcard_access_reserves_every_bank(self):
        ledger = PortLedger()
        buffer = FakeBuffer(banks=2)
        wildcard = FakeSite(buffer, bank=None)
        # Fill bank 1 at cycle 0; the wildcard needs *all* banks free.
        for _ in range(PORTS_PER_BANK):
            ledger.acquire(FakeSite(buffer, bank=1), 0)
        assert ledger.acquire(wildcard, 0) == 1

    def test_port_contention_raises_the_ii(self):
        # Three same-bank accesses per iteration against 2 ports/bank:
        # the bank sustains at most 2 accesses/cycle, so II >= 2.
        buffer = FakeBuffer(banks=1)
        nodes = [
            FakeNode(latency=1, site=FakeSite(buffer, bank=0))
            for _ in range(3)
        ]
        sim = simulate_tokens(FakeDFG(nodes), [], trips=20)
        assert sim.ii >= 2


class TestSimulationMechanics:
    def test_deterministic(self):
        dfg = chain(1, 3, 2)
        dep = FakeDep(src=dfg.nodes[1], dst=dfg.nodes[0])
        first = simulate_tokens(dfg, [dep], trips=16)
        second = simulate_tokens(dfg, [dep], trips=16)
        assert first == second

    def test_latency_extrapolates_past_the_window(self):
        sim = simulate_tokens(chain(1, 1), [], trips=1000, window=8)
        assert sim.simulated == 8
        exact = sim.completions[-1] + (1000 - 8) * sim.ii + 2
        assert sim.latency(1000) == exact
        # Within the window the measured completion is used directly.
        assert sim.latency(3) == sim.completions[2] + 2
        assert sim.latency(0) == 1

    def test_result_shape(self):
        sim = simulate_tokens(chain(2), [], trips=4)
        assert isinstance(sim, TokenSimResult)
        assert sim.simulated == 4
        assert len(sim.completions) == 4
        assert sim.iteration_latency == sim.completions[0]
