"""Scheduling: list scheduler invariants, modulo scheduling (ResMII/RecMII),
memory model banking, and dependence analysis — incl. property-based checks
of schedule legality."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptor import HLSAdaptor
from repro.hls.cdfg import build_block_dfg, carried_dependences
from repro.hls.memory import MemoryModel, PORTS_PER_BANK
from repro.hls.modulo import modulo_schedule, rec_mii, res_mii
from repro.hls.operators import DEFAULT_LIBRARY
from repro.hls.schedule import list_schedule
from repro.ir import IRBuilder, Module
from repro.ir import types as irt
from repro.ir.analysis import LoopInfo
from repro.ir.metadata import InterfaceSpec
from repro.ir.transforms import standard_cleanup_pipeline

from ..conftest import lowered_gemm_ir


def adapted_gemm(n=4, pipeline=True):
    _spec, irmod = lowered_gemm_ir(n, pipeline=pipeline)
    standard_cleanup_pipeline().run(irmod)
    HLSAdaptor().run(irmod)
    standard_cleanup_pipeline().run(irmod)
    return irmod.get_function("gemm")


def innermost_body(fn):
    li = LoopInfo(fn)
    loop = li.innermost_loops()[0]
    body = [b for b in loop.blocks if b is not loop.header]
    assert len(body) == 1
    return loop, body[0]


class TestListScheduling:
    def test_respects_data_dependences(self):
        fn = adapted_gemm()
        loop, body = innermost_body(fn)
        memory = MemoryModel(fn)
        dfg = build_block_dfg(body, DEFAULT_LIBRARY, memory)
        schedule = list_schedule(dfg)
        for node in dfg.nodes:
            for succ, weight in node.succs:
                assert (
                    schedule.start_of(succ) >= schedule.start_of(node) + weight
                ), f"{succ} starts before {node} finishes"

    def test_memory_port_limit_respected(self):
        fn = adapted_gemm()
        loop, body = innermost_body(fn)
        memory = MemoryModel(fn)
        dfg = build_block_dfg(body, DEFAULT_LIBRARY, memory)
        schedule = list_schedule(dfg)
        usage = {}
        for node in dfg.nodes:
            if node.site is None:
                continue
            key = (id(node.site.buffer), node.site.bank, schedule.start_of(node))
            usage[key] = usage.get(key, 0) + 1
        assert all(v <= PORTS_PER_BANK for v in usage.values())

    def test_length_covers_all_latencies(self):
        fn = adapted_gemm()
        _loop, body = innermost_body(fn)
        memory = MemoryModel(fn)
        dfg = build_block_dfg(body, DEFAULT_LIBRARY, memory)
        schedule = list_schedule(dfg)
        assert schedule.length == max(
            schedule.start_of(n) + max(n.latency, 1) for n in dfg.nodes
        )

    def test_empty_block(self):
        m = Module("e")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        b = IRBuilder(fn.add_block("entry"))
        b.ret()
        memory = MemoryModel(fn)
        dfg = build_block_dfg(fn.entry, DEFAULT_LIBRARY, memory)
        assert list_schedule(dfg).length == 1


class TestDependenceAnalysis:
    def test_gemm_accumulator_carried_raw(self):
        fn = adapted_gemm()
        loop, body = innermost_body(fn)
        memory = MemoryModel(fn)
        dfg = build_block_dfg(body, DEFAULT_LIBRARY, memory)
        counted = loop.counted_form()
        carried = carried_dependences(dfg, counted.indvar)
        raws = [d for d in carried if d.kind == "RAW"]
        # store C[i,j] -> load C[i,j] at distance 1 (k-invariant address).
        assert any(d.distance == 1 for d in raws)

    def test_independent_buffers_no_deps(self):
        fn = adapted_gemm()
        loop, body = innermost_body(fn)
        memory = MemoryModel(fn)
        dfg = build_block_dfg(body, DEFAULT_LIBRARY, memory)
        carried = carried_dependences(dfg, loop.counted_form().indvar)
        # A and B are read-only: no carried deps involving them.
        for dep in carried:
            assert dep.src.site.buffer.name == "C"
            assert dep.dst.site.buffer.name == "C"


class TestModuloScheduling:
    def test_gemm_ii_matches_recurrence(self):
        fn = adapted_gemm()
        loop, body = innermost_body(fn)
        memory = MemoryModel(fn)
        dfg = build_block_dfg(body, DEFAULT_LIBRARY, memory)
        carried = carried_dependences(dfg, loop.counted_form().indvar)
        ms = modulo_schedule(dfg, carried, target_ii=1)
        # load C (1) + fadd (4) + store (1) = 6-cycle recurrence.
        assert ms.ii == 6
        assert ms.rec_mii == 6

    def test_no_recurrence_gives_ii_1(self):
        # y[i] = x[i] * 2 : no loop-carried dependence at all.
        m = Module("s1", opaque_pointers=False)
        arr = irt.array_of(irt.f32, 16)
        fn = m.add_function(
            "f", irt.function_type(irt.void, [irt.pointer_to(arr), irt.pointer_to(arr)]),
            ["x", "y"],
        )
        fn.hls_interfaces = [
            InterfaceSpec("x", "ap_memory", 16, 32, (16,)),
            InterfaceSpec("y", "ap_memory", 16, 32, (16,)),
        ]
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        iv = b.phi(irt.i64, "i")
        b.cond_br(b.icmp("slt", iv, b.i64_(16)), body, exit_)
        b.position_at_end(body)
        px = b.gep(arr, fn.arguments[0], [b.i64_(0), iv])
        v = b.load(irt.f32, px, align=4)
        doubled = b.fadd(v, v)
        py = b.gep(arr, fn.arguments[1], [b.i64_(0), iv])
        b.store(doubled, py, align=4)
        nxt = b.add(iv, b.i64_(1))
        b.br(header)
        iv.add_incoming(b.i64_(0), entry)
        iv.add_incoming(nxt, body)
        b.position_at_end(exit_)
        b.ret()

        memory = MemoryModel(fn)
        dfg = build_block_dfg(body, DEFAULT_LIBRARY, memory)
        li = LoopInfo(fn)
        carried = carried_dependences(dfg, li.all_loops()[0].counted_form().indvar)
        ms = modulo_schedule(dfg, carried, target_ii=1)
        assert ms.ii == 1

    def test_res_mii_from_port_pressure(self):
        # Four loads of the same single-bank buffer in one iteration:
        # ResMII = ceil(4/2) = 2.
        m = Module("rp", opaque_pointers=False)
        arr = irt.array_of(irt.f32, 64)
        fn = m.add_function(
            "f", irt.function_type(irt.void, [irt.pointer_to(arr)]), ["x"]
        )
        fn.hls_interfaces = [InterfaceSpec("x", "ap_memory", 64, 32, (64,))]
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        for k in range(4):
            p = b.gep(arr, fn.arguments[0], [b.i64_(0), b.i64_(k)])
            b.load(irt.f32, p, align=4)
        b.ret()
        memory = MemoryModel(fn)
        dfg = build_block_dfg(entry, DEFAULT_LIBRARY, memory)
        assert res_mii(dfg) == 2

    def test_schedule_legality_property(self):
        """Modulo schedules must satisfy every dependence constraint."""
        fn = adapted_gemm()
        loop, body = innermost_body(fn)
        memory = MemoryModel(fn)
        dfg = build_block_dfg(body, DEFAULT_LIBRARY, memory)
        carried = carried_dependences(dfg, loop.counted_form().indvar)
        for target in (1, 2, 4, 8):
            ms = modulo_schedule(dfg, carried, target_ii=target)
            assert ms.ii >= target
            for node in dfg.nodes:
                for succ, weight in node.succs:
                    assert ms.starts[id(succ)] >= ms.starts[id(node)] + weight
            for dep in carried:
                lat = max(dep.src.latency, 1) if dep.kind != "WAR" else 0
                assert (
                    ms.starts[id(dep.dst)] + ms.ii * dep.distance
                    >= ms.starts[id(dep.src)] + lat
                )


class TestMemoryModel:
    def _fn_with_partition(self, partition):
        fn = adapted_gemm()
        for spec in fn.hls_interfaces:
            if spec.arg_name == "A":
                spec.partition = partition
        return fn

    def test_buffers_discovered(self):
        fn = adapted_gemm()
        memory = MemoryModel(fn)
        assert set(memory.buffers) == {"A", "B", "C"}
        assert memory.buffers["A"].depth == 16
        assert memory.buffers["A"].dims == (4, 4)

    def test_cyclic_partition_banks(self):
        fn = self._fn_with_partition({"kind": "cyclic", "factor": 2, "dim": 1})
        memory = MemoryModel(fn)
        assert memory.buffers["A"].banks == 2
        assert memory.buffers["A"].ports == 4

    def test_complete_partition_registers(self):
        fn = self._fn_with_partition({"kind": "complete", "factor": 1, "dim": 1})
        memory = MemoryModel(fn)
        assert memory.buffers["A"].bram18_count() == 0

    def test_bram_counts(self):
        fn = adapted_gemm()
        memory = MemoryModel(fn)
        # 16 x 32b fits one BRAM18 per buffer.
        assert memory.total_bram18() == 3

    def test_access_sites_resolved(self):
        from repro.ir.instructions import Load, Store

        fn = adapted_gemm()
        memory = MemoryModel(fn)
        sites = [
            memory.site_for(i)
            for b in fn.blocks
            for i in b.instructions
            if isinstance(i, (Load, Store))
        ]
        assert all(s is not None for s in sites)
        names = {s.buffer.name for s in sites}
        assert names == {"A", "B", "C"}


class TestRegisterRecurrences:
    """iter-args reductions: phi-carried recurrences must bound II."""

    def _dot_loop(self):
        from repro.flows import run_adaptor_flow
        from repro.workloads.polybench import KernelSpec
        import sys, os
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
        from examples.custom_kernel import build_dot_kernel

        result = run_adaptor_flow(build_dot_kernel())
        return result

    def test_fadd_reduction_ii_is_fadd_latency(self):
        result = self._dot_loop()
        pipelined = [l for l in result.synth_report.loops if l.pipelined]
        assert pipelined and pipelined[0].ii == 4  # fadd latency
        assert pipelined[0].rec_mii == 4

    def test_iv_increment_does_not_bound_ii(self):
        # A pipelined loop whose only recurrence is the (latency-0) integer
        # IV increment must reach II = 1.
        from repro.ir import IRBuilder, Module
        from repro.ir import types as irt
        from repro.ir.metadata import InterfaceSpec, LoopDirectives, encode_loop_directives
        from repro.backends import create_backend

        m = Module("iv", opaque_pointers=False)
        arr = irt.array_of(irt.f32, 16)
        fn = m.add_function(
            "f", irt.function_type(irt.void, [irt.pointer_to(arr), irt.pointer_to(arr)]),
            ["x", "y"],
        )
        fn.attributes.add("hls_top")
        fn.hls_interfaces = [
            InterfaceSpec("x", "ap_memory", 16, 32, (16,)),
            InterfaceSpec("y", "ap_memory", 16, 32, (16,)),
        ]
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        iv = b.phi(irt.i64, "i")
        b.cond_br(b.icmp("slt", iv, b.i64_(16)), body, exit_)
        b.position_at_end(body)
        px = b.gep(arr, fn.arguments[0], [b.i64_(0), iv])
        v = b.load(irt.f32, px, align=4)
        py = b.gep(arr, fn.arguments[1], [b.i64_(0), iv])
        b.store(b.fmul(v, v), py, align=4)
        nxt = b.add(iv, b.i64_(1))
        latch = b.br(header)
        latch.metadata["llvm.loop"] = encode_loop_directives(
            LoopDirectives(pipeline=True, ii=1), dialect="hls"
        )
        iv.add_incoming(b.i64_(0), entry)
        iv.add_incoming(nxt, body)
        b.position_at_end(exit_)
        b.ret()

        report = create_backend("static").synthesize(m)
        pipelined = [l for l in report.loops if l.pipelined]
        assert pipelined and pipelined[0].ii == 1
