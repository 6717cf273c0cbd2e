"""Every PolyBench kernel builder: structure, and functional correctness
of its lowered IR against the NumPy oracle."""

import numpy as np
import pytest

from repro.mlir import verify_module
from repro.workloads import (
    KERNEL_BUILDERS,
    SUITE_SIZES,
    build_kernel,
    default_suite,
    kernel_names,
)

from ..conftest import run_lowered

ALL_KERNELS = sorted(KERNEL_BUILDERS)


class TestSuiteStructure:
    def test_fifteen_kernels(self):
        assert len(ALL_KERNELS) == 15

    def test_sizes_cover_all_kernels(self):
        for size_class, table in SUITE_SIZES.items():
            assert set(table) == set(ALL_KERNELS), size_class

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            build_kernel("fft")

    def test_unknown_size_class_rejected(self):
        with pytest.raises(KeyError):
            default_suite("HUGE")

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_spec_metadata(self, name):
        spec = build_kernel(name, **SUITE_SIZES["MINI"][name])
        assert spec.name == name
        assert spec.outputs
        assert spec.description
        assert spec.loop_count() >= 1
        assert spec.loop_nest_depth() >= 1
        verify_module(spec.module)

    def test_loop_nest_depths(self):
        assert build_kernel("gemm", **SUITE_SIZES["MINI"]["gemm"]).loop_nest_depth() == 3
        assert build_kernel("doitgen", **SUITE_SIZES["MINI"]["doitgen"]).loop_nest_depth() == 4
        assert build_kernel("mvt", **SUITE_SIZES["MINI"]["mvt"]).loop_nest_depth() == 2

    def test_top_attr_set(self):
        spec = build_kernel("gemm", **SUITE_SIZES["MINI"]["gemm"])
        assert spec.fn.op.has_attr("hls.top")

    def test_inputs_reproducible(self):
        spec = build_kernel("gemm", **SUITE_SIZES["MINI"]["gemm"])
        a = spec.make_inputs(3)
        b = spec.make_inputs(3)
        c = spec.make_inputs(4)
        assert np.array_equal(a["A"], b["A"])
        assert not np.array_equal(a["A"], c["A"])


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_mini_kernel_matches_numpy(self, name):
        spec = build_kernel(name, **SUITE_SIZES["MINI"][name])
        arrays = spec.make_inputs(seed=42)
        got = run_lowered(spec.module, spec.name, arrays, spec.scalar_args)
        want = spec.reference(
            **{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args
        )
        for out in spec.outputs:
            assert np.allclose(got[out], want[out], rtol=1e-4, atol=1e-5), out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gemm_multiple_seeds(self, seed):
        spec = build_kernel("gemm", NI=5, NJ=4, NK=6)
        arrays = spec.make_inputs(seed)
        got = run_lowered(spec.module, spec.name, arrays, spec.scalar_args)
        want = spec.reference(
            **{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args
        )
        assert np.allclose(got["C"], want["C"], rtol=1e-4)

    def test_rectangular_shapes(self):
        # Non-square shapes catch transposed-subscript bugs.
        spec = build_kernel("atax", M=3, N=7)
        arrays = spec.make_inputs(9)
        got = run_lowered(spec.module, spec.name, arrays, spec.scalar_args)
        want = spec.reference(
            **{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args
        )
        assert np.allclose(got["y"], want["y"], rtol=1e-4)
