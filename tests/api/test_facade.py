"""repro.api facade: equivalence with the manual pipeline, re-exports."""

from __future__ import annotations

import pytest

import repro
from repro.adaptor import HLSAdaptor
from repro.api import CompileResult, compile_kernel
from repro.backends import create_backend
from repro.ir.transforms import standard_cleanup_pipeline
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.service.service import resolve_config
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

KERNELS = ["gemm", "atax", "jacobi_2d"]


def manual_synth_report(kernel: str, config: str = "optimized"):
    """The sixty-second tour, spelled out by hand."""
    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    resolve_config(config).apply(spec)
    lowering_pipeline().run(spec.module)
    ir_module = convert_to_llvm(spec.module)
    standard_cleanup_pipeline().run(ir_module)
    HLSAdaptor().run(ir_module)
    return create_backend("static").synthesize(ir_module)


class TestFacadeVsManual:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_same_latency_and_resources(self, kernel):
        facade = compile_kernel(kernel, size="MINI", config="optimized")
        manual = manual_synth_report(kernel)
        assert facade.latency == manual.latency
        assert facade.resources == manual.resources

    def test_baseline_config_matches_too(self):
        facade = compile_kernel("gemm", size="MINI", config="baseline")
        manual = manual_synth_report("gemm", config="baseline")
        assert facade.latency == manual.latency
        assert facade.resources == manual.resources


class TestCompileResult:
    def test_fields(self):
        result = compile_kernel("gemm", size="MINI", config="optimized")
        assert isinstance(result, CompileResult)
        assert result.kernel == "gemm"
        assert result.config == "optimized"
        assert result.size_class == "MINI"
        assert result.lint_clean is True
        assert not result.degraded
        assert result.flow is not None
        assert result.utilization["lut"] > 0
        assert result.trace is None

    def test_explicit_sizes_override(self):
        small = compile_kernel("gemm", sizes={"NI": 4, "NJ": 4, "NK": 4})
        mini = compile_kernel("gemm", size="MINI")
        assert small.latency < mini.latency

    def test_config_object_accepted(self):
        from repro.flows.config import OptimizationConfig

        config = OptimizationConfig.point(pipeline=True, unroll={1: 2},
                                          partition_factor=2)
        result = compile_kernel("gemm", size="MINI", config=config)
        assert result.config == config.name

    def test_trace_opt_in(self):
        result = compile_kernel("gemm", size="MINI", trace=True)
        assert result.trace is not None
        assert result.trace["name"] == "adaptor-flow"

    def test_to_dict_and_summary(self):
        result = compile_kernel("gemm", size="MINI")
        doc = result.to_dict()
        assert doc["latency"] == result.latency
        assert "gemm" in result.summary()
        assert "lint clean" in result.summary()


class TestTopLevelReexports:
    def test_facade_names_resolve_lazily(self):
        assert repro.compile_kernel is compile_kernel
        from repro.api import explore as api_explore

        assert repro.explore is api_explore
        assert repro.CompileResult is CompileResult

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute"):
            repro.definitely_not_a_thing

    def test_explore_through_facade(self, tmp_path):
        report = repro.explore(
            "atax", size="MINI", space="tiny",
            cache_dir=str(tmp_path / "c"), budget={"dsp": 220},
        )
        assert report.kernel == "atax"
        assert report.frontier
        assert report.budget == {"dsp": 220}
        assert report.to_dict()["best"] is not None
