"""Cache-key fingerprints: stability and sensitivity."""

from __future__ import annotations

import pytest

from repro.flows import OptimizationConfig
from repro.service import (
    cache_key,
    config_fingerprint,
    kernel_fingerprint,
    pipeline_fingerprint,
)
from repro.service import fingerprint as fp_mod
from repro.workloads import KERNEL_BUILDERS
from repro.workloads.suite import SUITE_SIZES

GEMM_MINI = SUITE_SIZES["MINI"]["gemm"]


class TestStability:
    def test_pipeline_fingerprint_stable(self):
        assert pipeline_fingerprint() == pipeline_fingerprint()

    def test_kernel_fingerprint_stable(self):
        assert kernel_fingerprint("gemm", GEMM_MINI) == kernel_fingerprint(
            "gemm", GEMM_MINI
        )

    def test_config_fingerprint_ignores_object_identity(self):
        a = OptimizationConfig.optimized(ii=2)
        b = OptimizationConfig.optimized(ii=2)
        assert a is not b
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_cache_key_stable(self):
        cfg = OptimizationConfig.baseline()
        assert cache_key("gemm", GEMM_MINI, cfg) == cache_key("gemm", GEMM_MINI, cfg)


class TestSensitivity:
    def test_config_changes_key(self):
        base = cache_key("gemm", GEMM_MINI, OptimizationConfig.baseline())
        opt = cache_key("gemm", GEMM_MINI, OptimizationConfig.optimized(ii=1))
        assert base != opt

    def test_config_field_changes_fingerprint(self):
        a = config_fingerprint(OptimizationConfig.optimized(ii=1))
        b = config_fingerprint(OptimizationConfig.optimized(ii=2))
        assert a != b

    def test_sizes_change_key(self):
        cfg = OptimizationConfig.baseline()
        mini = cache_key("gemm", GEMM_MINI, cfg)
        small = cache_key("gemm", SUITE_SIZES["SMALL"]["gemm"], cfg)
        assert mini != small

    def test_kernel_ir_changes_key(self):
        cfg = OptimizationConfig.baseline()
        gemm = cache_key("gemm", GEMM_MINI, cfg)
        atax = cache_key("atax", SUITE_SIZES["MINI"]["atax"], cfg)
        assert gemm != atax

    def test_seed_equivalence_device_change_key(self):
        cfg = OptimizationConfig.baseline()
        base = cache_key("gemm", GEMM_MINI, cfg)
        assert cache_key("gemm", GEMM_MINI, cfg, seed=1) != base
        assert cache_key("gemm", GEMM_MINI, cfg, check_equivalence=False) != base
        assert cache_key("gemm", GEMM_MINI, cfg, device="other") != base
        assert cache_key("gemm", GEMM_MINI, cfg, backend="dataflow") != base

    def test_pipeline_version_bump_changes_key(self, monkeypatch):
        cfg = OptimizationConfig.baseline()
        before = cache_key("gemm", GEMM_MINI, cfg)
        monkeypatch.setattr(fp_mod, "PIPELINE_VERSION", fp_mod.PIPELINE_VERSION + 1)
        assert cache_key("gemm", GEMM_MINI, cfg) != before


class TestKernelHashMemo:
    """The kernel-IR hash is memoised per process, keyed on the builder
    registered under the name as well as the name and sizes."""

    def test_repeat_keys_build_the_kernel_once(self, monkeypatch):
        original = KERNEL_BUILDERS["gemm"]
        calls = []

        def counting(**sizes):
            calls.append(sizes)
            return original(**sizes)

        monkeypatch.setitem(KERNEL_BUILDERS, "gemm", counting)
        cfg = OptimizationConfig.baseline()
        first = cache_key("gemm", GEMM_MINI, cfg)
        assert cache_key("gemm", GEMM_MINI, cfg, seed=3) != first
        assert cache_key("gemm", dict(reversed(list(GEMM_MINI.items()))), cfg) == first
        assert len(calls) == 1
        # Same printed MLIR as the registered builder, so the same key.
        monkeypatch.setitem(KERNEL_BUILDERS, "gemm", original)
        assert cache_key("gemm", GEMM_MINI, cfg) == first

    def test_swapped_builder_changes_key_in_process(self, monkeypatch):
        cfg = OptimizationConfig.baseline()
        before = cache_key("gemm", GEMM_MINI, cfg)
        original = KERNEL_BUILDERS["gemm"]

        def bigger(**sizes):
            return original(**{name: n + 1 for name, n in sizes.items()})

        monkeypatch.setitem(KERNEL_BUILDERS, "gemm", bigger)
        assert cache_key("gemm", GEMM_MINI, cfg) != before
        monkeypatch.setitem(KERNEL_BUILDERS, "gemm", original)
        assert cache_key("gemm", GEMM_MINI, cfg) == before
