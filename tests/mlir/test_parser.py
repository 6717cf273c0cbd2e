"""MLIR textual parser: round-trips and error handling."""

import numpy as np
import pytest

from repro.mlir import print_module, verify_module
from repro.mlir.affine_expr import AffineMap, d, s
from repro.mlir.parser import MLIRParseError, parse_affine_map, parse_mlir_module
from repro.workloads import KERNEL_BUILDERS, build_kernel
from repro.workloads.suite import SUITE_SIZES

from ..conftest import run_lowered


class TestAffineMapParsing:
    def test_identity(self):
        amap = parse_affine_map("(d0, d1) -> (d0, d1)")
        assert amap == AffineMap.identity(2)

    def test_arithmetic(self):
        amap = parse_affine_map("affine_map<(d0) -> ((d0 + 1))>")
        assert amap.evaluate([5]) == (6,)

    def test_symbols(self):
        amap = parse_affine_map("(d0)[s0] -> ((d0 * 4 + s0))")
        assert amap.evaluate([2], [3]) == (11,)

    def test_floordiv_mod(self):
        amap = parse_affine_map("(d0) -> ((d0 floordiv 3), (d0 mod 3))")
        assert amap.evaluate([10]) == (3, 1)

    def test_precedence(self):
        amap = parse_affine_map("(d0, d1) -> (d0 + d1 * 2)")
        assert amap.evaluate([1, 10]) == (21,)

    def test_negative_constant(self):
        amap = parse_affine_map("(d0) -> ((d0 + -1))")
        assert amap.evaluate([5]) == (4,)

    def test_malformed_rejected(self):
        with pytest.raises(MLIRParseError):
            parse_affine_map("(d0 -> d0)")
        with pytest.raises(MLIRParseError):
            parse_affine_map("(d0) -> (d7)")


class TestModuleRoundTrip:
    @pytest.mark.parametrize("name", sorted(KERNEL_BUILDERS))
    def test_kernel_roundtrips_to_fixpoint(self, name):
        spec = build_kernel(name, **SUITE_SIZES["MINI"][name])
        text = print_module(spec.module)
        parsed = parse_mlir_module(text)
        assert print_module(parsed) == text
        verify_module(parsed)

    @pytest.mark.parametrize("name", ["gemm", "syrk", "symm", "seidel_2d"])
    def test_parsed_module_runs_correctly(self, name):
        spec = build_kernel(name, **SUITE_SIZES["MINI"][name])
        parsed = parse_mlir_module(print_module(spec.module))
        arrays = spec.make_inputs(5)
        got = run_lowered(parsed, spec.name, arrays, spec.scalar_args)
        want = spec.reference(
            **{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args
        )
        for out in spec.outputs:
            assert np.allclose(got[out], want[out], rtol=1e-4, atol=1e-5)

    def test_directive_attrs_roundtrip(self):
        from repro.mlir.passes.loop_pipeline import loop_directive_attrs, set_loop_directives

        spec = build_kernel("gemm", **SUITE_SIZES["MINI"]["gemm"])
        loops = [op for op in spec.fn.op.walk() if op.name == "affine.for"]
        set_loop_directives(loops[-1], pipeline=True, ii=2, unroll=4)
        parsed = parse_mlir_module(print_module(spec.module))
        ploops = [
            op for op in parsed.walk()
            if op.name == "affine.for" and op.has_attr("hls.pipeline")
        ]
        assert len(ploops) == 1
        attrs = loop_directive_attrs(ploops[0])
        assert attrs == {"pipeline": True, "ii": 2, "unroll": 4}

    def test_parse_then_lower_end_to_end(self):
        """Text -> parse -> full flow: the parser feeds real pipelines."""
        from repro.flows.adaptor_flow import run_adaptor_flow
        from repro.workloads.polybench import KernelSpec

        spec = build_kernel("atax", **SUITE_SIZES["MINI"]["atax"])
        reparsed = parse_mlir_module(print_module(spec.module))
        clone = KernelSpec(
            spec.name, reparsed, spec.array_args, spec.scalar_args,
            spec.outputs, spec.reference, spec.sizes, spec.description,
        )
        result = run_adaptor_flow(clone)
        assert result.latency > 0


class TestParserErrors:
    def test_unknown_op(self):
        with pytest.raises(MLIRParseError, match="unknown operation"):
            parse_mlir_module(
                "module @m {\n  func.func @f() {\n    exotic.op\n  }\n}"
            )

    def test_undefined_value(self):
        with pytest.raises(MLIRParseError, match="undefined value"):
            parse_mlir_module(
                "module @m {\n  func.func @f() {\n"
                "    %0 = arith.addi %ghost, %ghost : i32\n    func.return\n  }\n}"
            )

    def test_iv_scoped_to_loop(self):
        src = """module @m {
  func.func @f(%A: memref<4xf32>) {
    affine.for %iv0 = 0 to 4 {
      affine.yield
    }
    %x = affine.apply affine_map<(d0) -> (d0)>(%iv0)
    func.return
  }
}"""
        with pytest.raises(MLIRParseError, match="undefined value"):
            parse_mlir_module(src)
