"""RecMII by cycle-ratio jumps against the linear II scan it replaced.

``scan_rec_mii`` is the reference: it tries II = 1, 2, 3, ... with one
full Bellman-Ford positive-cycle test per value, capped at ``max_ii``.
``rec_mii`` (and the RecMII ``modulo_schedule`` reports) must return the
same integer on every loop body the backends schedule — the 15 MINI
kernels under both paper recipes, trmm's wide-space unrolled bodies — and
on seeded random constraint graphs with carried cycles, zero-weight WAR
edges, self-loops, disconnected parts and low ``max_ii`` caps.

``reference_res_mii`` keeps the ResMII that predates the shared port
ledger: ``res_mii`` must equal it on every innermost MINI body, unbanked
and partitioned, and on seeded random sets of access sites.
"""

from __future__ import annotations

import random

import pytest

import repro.backends.dataflow as dataflow_backend
import repro.backends.static as static_backend
from repro.backends import backend_ids, create_backend
from repro.flows.config import OptimizationConfig
from repro.hls.cdfg import BlockDFG, CarriedDep, DFGNode
from repro.hls.memory import PORTS_PER_BANK
from repro.hls.modulo import carried_weight, modulo_schedule, rec_mii, res_mii
from repro.service.service import resolve_config
from repro.workloads.suite import SUITE_SIZES

from ..conftest import adapted_mini_module, mini_innermost_bodies, random_sites

KINDS = ("RAW", "WAW", "WAR", "REG")
CAPS = (3, 8, 4096)


def scan_rec_mii(dfg: BlockDFG, carried, max_ii: int = 4096) -> int:
    """The linear scan: smallest II with no positive cycle, one
    Bellman-Ford pass per candidate II."""
    if not carried:
        return 1
    nodes = dfg.nodes
    index = {id(n): i for i, n in enumerate(nodes)}
    edges = []
    for node in nodes:
        for succ, weight in node.succs:
            edges.append((index[id(node)], index[id(succ)], weight, 0))
    for dep in carried:
        edges.append(
            (index[id(dep.src)], index[id(dep.dst)], carried_weight(dep), dep.distance)
        )

    def has_positive_cycle(ii: int) -> bool:
        dist = [0] * len(nodes)
        for _ in range(len(nodes)):
            changed = False
            for u, v, lat, d in edges:
                cand = dist[u] + lat - ii * d
                if cand > dist[v]:
                    dist[v] = cand
                    changed = True
            if not changed:
                return False
        return True

    ii = 1
    while ii < max_ii and has_positive_cycle(ii):
        ii += 1
    return ii


def random_body(seed: int):
    """A seeded constraint graph: forward intra-iteration edges within each
    of up to three disconnected parts, carried edges of distance 1-5 in
    either direction (self-loops included), node latencies 0-12."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    nodes = [
        DFGNode(inst=None, index=i, latency=rng.randint(0, 12), spec_key="op")
        for i in range(n)
    ]
    dfg = BlockDFG(None, nodes)
    part = [rng.randrange(rng.randint(1, 3)) for _ in range(n)]
    for v in range(n):
        for u in range(v):
            if part[u] == part[v] and rng.random() < 0.35:
                weight = nodes[u].latency if rng.random() < 0.7 else max(nodes[u].latency, 1)
                dfg.add_edge(nodes[u], nodes[v], weight)
    carried = []
    for _ in range(rng.randint(1, n + 2)):
        src = rng.randrange(n)
        dst = src if rng.random() < 0.2 else rng.choice(
            [v for v in range(n) if part[v] == part[src]]
        )
        carried.append(
            CarriedDep(nodes[src], nodes[dst], rng.randint(1, 5), rng.choice(KINDS))
        )
    return dfg, carried, rng.choice(CAPS)


def check_random_bodies(seeds) -> int:
    """Assert jump == scan on every seed; returns how many hit the cap."""
    capped = 0
    for seed in seeds:
        dfg, carried, cap = random_body(seed)
        want = scan_rec_mii(dfg, carried, cap)
        assert rec_mii(dfg, carried, cap) == want, f"seed {seed}, cap {cap}"
        assert modulo_schedule(dfg, carried, max_ii=cap).rec_mii == want, f"seed {seed}"
        capped += want == cap
    return capped


def test_matches_scan_on_random_graphs():
    capped = check_random_bodies(range(600))
    assert 0 < capped < 600  # the cap is exercised, and is not every case


@pytest.mark.slow
def test_matches_scan_on_random_graphs_sweep():
    capped = check_random_bodies(range(10_000, 15_000))
    assert 0 < capped < 5_000


def test_cycle_without_carried_edge_is_infeasible_at_every_ii():
    # An intra-iteration cycle (distance 0) of positive latency: no II
    # removes it, so both searches stop at the cap.
    nodes = [DFGNode(inst=None, index=i, latency=2, spec_key="op") for i in range(3)]
    dfg = BlockDFG(None, nodes)
    dfg.add_edge(nodes[0], nodes[1], 2)
    dfg.add_edge(nodes[1], nodes[0], 2)
    carried = [CarriedDep(nodes[2], nodes[2], 1, "REG")]
    for cap in (3, 8, 64):
        assert rec_mii(dfg, carried, cap) == scan_rec_mii(dfg, carried, cap) == cap


@pytest.fixture
def recorded(monkeypatch):
    """Every RecMII either backend computes, with the scan's answer:
    ``(backend, nodes, carried, got, want)``."""
    calls = []
    schedule, bound = static_backend.modulo_schedule, dataflow_backend.rec_mii

    def static_schedule(dfg, carried, *args, **kwargs):
        ms = schedule(dfg, carried, *args, **kwargs)
        calls.append(("static", len(dfg.nodes), len(carried), ms.rec_mii,
                      scan_rec_mii(dfg, carried)))
        return ms

    def dataflow_bound(dfg, carried, *args, **kwargs):
        got = bound(dfg, carried, *args, **kwargs)
        calls.append(("dataflow", len(dfg.nodes), len(carried), got,
                      scan_rec_mii(dfg, carried, *args, **kwargs)))
        return got

    monkeypatch.setattr(static_backend, "modulo_schedule", static_schedule)
    monkeypatch.setattr(dataflow_backend, "rec_mii", dataflow_bound)
    return calls


def synthesize_both(kernel: str, config: OptimizationConfig) -> None:
    module = adapted_mini_module(kernel, config)
    for backend in backend_ids():
        create_backend(backend).synthesize(module)


def test_matches_scan_on_every_mini_body(recorded):
    for kernel in sorted(SUITE_SIZES["MINI"]):
        for config in ("baseline", "optimized"):
            synthesize_both(kernel, resolve_config(config))
    assert {call[0] for call in recorded} == {"static", "dataflow"}
    assert any(call[2] for call in recorded)  # bodies with carried deps
    assert [call[3] for call in recorded] == [call[4] for call in recorded]


@pytest.mark.parametrize("unroll", [{0: 4}, {0: 4, 1: 2}, {0: 4, 1: 4}],
                         ids=["u0x4", "u0x4+u1x2", "u0x4+u1x4"])
def test_matches_scan_on_trmm_wide_bodies(recorded, unroll):
    config = OptimizationConfig.point(pipeline=True, unroll=unroll)
    synthesize_both("trmm", config)
    assert [call[3] for call in recorded] == [call[4] for call in recorded]
    if config.name == "pipe-ii1+u0x4+u1x2":
        # The unrolled body's binding recurrence, on both backends.
        assert {(call[0], call[3]) for call in recorded if call[2]} == {
            ("static", 36), ("dataflow", 36)
        }


def reference_res_mii(dfg: BlockDFG) -> int:
    """ResMII as two passes over per-(buffer, bank) counts, bank-unknown
    accesses filed under bank None and added to every known bank."""
    pressure = {}
    for node in dfg.nodes:
        if node.site is None:
            continue
        key = (id(node.site.buffer), node.site.bank)
        pressure[key] = pressure.get(key, 0) + 1
    best = 1
    for (buf, bank), count in pressure.items():
        if bank is None:
            continue
        wild = pressure.get((buf, None), 0)
        best = max(best, -(-(count + wild) // PORTS_PER_BANK))
    for (buf, bank), count in pressure.items():
        if bank is not None:
            continue
        best = max(best, -(-count // PORTS_PER_BANK))
    return best


def test_res_mii_matches_reference_on_mini_bodies():
    for config in ("baseline", "optimized_part"):
        for kernel, dfg, _carried in mini_innermost_bodies(config):
            assert res_mii(dfg) == reference_res_mii(dfg), (config, kernel)


def test_res_mii_matches_reference_on_random_sites():
    bounds = set()
    for seed in range(600):
        dfg = random_sites(seed)
        want = reference_res_mii(dfg)
        assert res_mii(dfg) == want, f"seed {seed}"
        bounds.add(want)
    assert len(bounds) > 2  # the port bound varies, not only 1
