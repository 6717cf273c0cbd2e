"""HLS engine end-to-end: csynth-style reports, directive effects, device
utilisation."""

import pytest

from repro.adaptor import HLSAdaptor
from repro.backends import create_backend
from repro.hls import DEVICES, FrontendError
from repro.ir.transforms import standard_cleanup_pipeline
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.mlir.passes.array_partition import set_array_partition
from repro.mlir.passes.loop_pipeline import set_loop_directives
from repro.workloads import build_kernel


def synth_kernel(name="gemm", sizes=None, directive=None, partition=None,
                 device="xc7z020"):
    sizes = sizes or {"NI": 4, "NJ": 4, "NK": 4}
    spec = build_kernel(name, **sizes)
    loops = [op for op in spec.fn.op.walk() if op.name == "affine.for"]
    innermost = [
        l for l in loops
        if not any(i is not l and i.name == "affine.for" for i in l.walk())
    ]
    if directive:
        for loop in innermost:
            set_loop_directives(loop, **directive)
    if partition:
        from repro.mlir.core import MemRefType

        for arg, arg_name in zip(spec.fn.arguments, spec.fn.arg_names):
            if isinstance(arg.type, MemRefType):
                set_array_partition(spec.fn, arg_name, **partition)
    lowering_pipeline().run(spec.module)
    irmod = convert_to_llvm(spec.module)
    standard_cleanup_pipeline().run(irmod)
    HLSAdaptor().run(irmod)
    standard_cleanup_pipeline().run(irmod)
    return create_backend("static", device=device).synthesize(irmod)


class TestReports:
    def test_loop_table_structure(self):
        report = synth_kernel()
        assert len(report.loops) == 3
        depths = [l.depth for l in report.loops]
        assert depths == [1, 2, 3]
        assert all(l.trip_count_max == 4 for l in report.loops)

    def test_latency_composition(self):
        report = synth_kernel()
        outer = report.loops[0]
        # Function latency = outer loop + prologue/epilogue blocks.
        assert report.latency >= outer.latency_max
        assert report.latency_min == report.latency_max  # constant trips

    def test_resources_populated(self):
        report = synth_kernel()
        assert report.resources["bram_18k"] == 3
        assert report.resources["dsp"] > 0
        assert report.resources["lut"] > 0
        util = report.utilization()
        assert 0 < util["dsp"] < 100

    def test_summary_renders(self):
        report = synth_kernel()
        text = report.summary()
        assert "latency (cycles)" in text
        assert "BRAM_18K" in text
        assert "pipe" in text

    def test_rejects_unadapted(self):
        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        lowering_pipeline().run(spec.module)
        irmod = convert_to_llvm(spec.module)
        with pytest.raises(FrontendError):
            create_backend("static").synthesize(irmod)

    def test_top_function_selection(self):
        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        lowering_pipeline().run(spec.module)
        irmod = convert_to_llvm(spec.module)
        standard_cleanup_pipeline().run(irmod)
        HLSAdaptor().run(irmod)
        report = create_backend("static").synthesize(irmod, top="gemm")
        assert report.function == "gemm"
        with pytest.raises(ValueError):
            create_backend("static").synthesize(irmod, top="nope")


class TestDirectiveEffects:
    def test_pipelining_reduces_latency(self):
        base = synth_kernel()
        piped = synth_kernel(directive={"pipeline": True, "ii": 1})
        assert piped.latency < base.latency
        inner = piped.loops[-1]
        assert inner.pipelined and inner.ii is not None

    def test_requested_ii_is_floor(self):
        piped = synth_kernel(directive={"pipeline": True, "ii": 8},
                             sizes={"NI": 6, "NJ": 6, "NK": 6})
        assert piped.loops[-1].ii >= 8

    def test_unroll_directive_reduces_trip(self):
        base = synth_kernel()
        unrolled = synth_kernel(directive={"unroll": 2})
        inner_base = base.loops[-1]
        inner_unrolled = unrolled.loops[-1]
        assert inner_unrolled.trip_count_max == inner_base.trip_count_max // 2
        assert inner_unrolled.unroll_factor == 2

    def test_partition_lifts_port_pressure(self):
        # jacobi_1d reads 3 neighbours of A per iteration: 1 bank => ResMII 2,
        # cyclic factor 3 puts each neighbour in its own bank => II can drop.
        base = synth_kernel(
            "jacobi_1d", {"N": 30, "TSTEPS": 2},
            directive={"pipeline": True, "ii": 1},
        )
        parted = synth_kernel(
            "jacobi_1d", {"N": 30, "TSTEPS": 2},
            directive={"pipeline": True, "ii": 1},
            partition={"kind": "cyclic", "factor": 3, "dim": 0},
        )
        inner_base = [l for l in base.loops if l.pipelined]
        inner_parted = [l for l in parted.loops if l.pipelined]
        assert min(l.ii for l in inner_parted) <= min(l.ii for l in inner_base)
        assert parted.resources["bram_18k"] >= base.resources["bram_18k"]

    def test_unroll_increases_parallel_resources(self):
        piped = synth_kernel(
            sizes={"NI": 8, "NJ": 8, "NK": 8},
            directive={"pipeline": True, "ii": 1, "unroll": 4},
            partition={"kind": "cyclic", "factor": 4, "dim": 1},
        )
        flat = synth_kernel(
            sizes={"NI": 8, "NJ": 8, "NK": 8},
            directive={"pipeline": True, "ii": 1},
        )
        assert piped.resources["dsp"] >= flat.resources["dsp"]


class TestTriangularLoops:
    def test_syrk_reports_trip_range(self):
        report = synth_kernel("syrk", {"N": 6, "M": 4})
        ranged = [
            l for l in report.loops if l.trip_count_min != l.trip_count_max
        ]
        assert ranged, "triangular inner loops should report a trip range"
        assert report.latency_min < report.latency_max


class TestDevices:
    def test_device_budgets(self):
        small = synth_kernel(device="xc7z020")
        big = synth_kernel(device="xcu250")
        assert small.resources == big.resources  # same design
        assert small.utilization()["lut"] > big.utilization()["lut"]

    def test_known_devices(self):
        assert set(DEVICES) >= {"xc7z020", "xcu250", "xcku5p"}
