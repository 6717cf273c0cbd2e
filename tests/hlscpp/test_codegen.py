"""HLS C++ codegen: generated code must re-parse, re-compile, and match the
kernel's NumPy semantics — the full baseline round trip."""

import numpy as np
import pytest

from repro.hlscpp import compile_hls_cpp, generate_hls_cpp
from repro.ir import run_kernel
from repro.ir.transforms import standard_cleanup_pipeline
from repro.mlir import FunctionType, ModuleOp, OpBuilder, f32, i1, i32, memref
from repro.mlir.affine_expr import AffineMap, d
from repro.mlir.dialects import affine, arith, func
from repro.mlir.passes.array_partition import set_array_partition
from repro.mlir.passes.loop_pipeline import set_loop_directives
from repro.workloads import build_kernel

KERNELS = [
    ("gemm", {"NI": 4, "NJ": 4, "NK": 4}),
    ("two_mm", {"NI": 3, "NJ": 4, "NK": 5, "NL": 3}),
    ("atax", {"M": 4, "N": 5}),
    ("mvt", {"N": 5}),
    ("syrk", {"N": 4, "M": 3}),
    ("trmm", {"M": 4, "N": 3}),
    ("symm", {"M": 4, "N": 4}),
    ("doitgen", {"NQ": 3, "NR": 3, "NP": 4}),
    ("jacobi_2d", {"N": 6, "TSTEPS": 1}),
    ("seidel_2d", {"N": 6, "TSTEPS": 1}),
]


class TestGeneratedSource:
    def test_gemm_source_shape(self):
        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        cpp = generate_hls_cpp(spec.module)
        assert "void gemm(float A[4][4], float B[4][4], float C[4][4]" in cpp
        assert "#pragma HLS INTERFACE ap_memory port=A" in cpp
        assert "for (int i1 = 0; i1 < 4; i1++)" in cpp

    def test_pipeline_pragma_emitted(self):
        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        loops = [op for op in spec.fn.op.walk() if op.name == "affine.for"]
        set_loop_directives(loops[-1], pipeline=True, ii=2)
        cpp = generate_hls_cpp(spec.module)
        assert "#pragma HLS PIPELINE II=2" in cpp

    def test_partition_pragma_emitted(self):
        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        set_array_partition(spec.fn, "A", "cyclic", 2, 1)
        cpp = generate_hls_cpp(spec.module)
        assert "#pragma HLS ARRAY_PARTITION variable=A cyclic factor=2 dim=2" in cpp

    def test_triangular_bounds_reference_outer_iv(self):
        spec = build_kernel("syrk", N=4, M=3)
        cpp = generate_hls_cpp(spec.module)
        assert "(i1 + 1)" in cpp  # upper bound j < i+1

    def test_iter_args_become_accumulators(self):
        spec = build_kernel("symm", M=3, N=3)
        cpp = generate_hls_cpp(spec.module)
        assert "acc" in cpp  # reduction variable materialised


class TestRoundTrip:
    @pytest.mark.parametrize("name,sizes", KERNELS)
    def test_cpp_flow_matches_oracle(self, name, sizes):
        spec = build_kernel(name, **sizes)
        cpp = generate_hls_cpp(spec.module)
        mod = compile_hls_cpp(cpp)
        standard_cleanup_pipeline().run(mod)
        arrays = spec.make_inputs(7)
        got = run_kernel(mod, spec.name, arrays, spec.scalar_args)
        want = spec.reference(
            **{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args
        )
        for out in spec.outputs:
            assert np.allclose(got[out], want[out], rtol=1e-4, atol=1e-5), (name, out)


def _run_cpp(module, name, arrays):
    """``module`` through codegen and the C frontend, run on ``arrays``."""
    return run_kernel(compile_hls_cpp(generate_hls_cpp(module)), name, arrays)


class TestFloorSemantics:
    """Affine ``floordiv``/``mod`` round toward -inf, where C's ``/`` and
    ``%`` truncate; unsigned ``cmpi`` orders negatives above positives."""

    @pytest.mark.parametrize(
        "subscript,index",
        [
            ((d(0) - 1) % 8, lambda i: (i - 1) % 8),
            ((d(0) + 5) // 2 - 2, lambda i: (i + 5) // 2 - 2),
            ((d(0) - 5) // 2 + 3, lambda i: (i - 5) // 2 + 3),
        ],
        ids=["periodic-mod", "floordiv", "floordiv-negative"],
    )
    def test_affine_subscript_matches_numpy(self, subscript, index):
        mod = ModuleOp("read")
        fn = func.func(
            "read", FunctionType([memref(8, f32), memref(8, f32)], []), ["x", "out"]
        )
        mod.append(fn.op)
        b = OpBuilder(fn.entry)
        loop = b.affine_for(0, 8)
        with b.inside(loop):
            i = loop.induction_variable
            read = AffineMap(1, 0, [subscript])
            value = b.insert(affine.load(fn.arguments[0], [i], read)).result
            b.insert(affine.store(value, fn.arguments[1], [i]))
        b.insert(func.return_())
        x = np.arange(10, 18, dtype=np.float32)
        got = _run_cpp(mod, "read", {"x": x, "out": np.zeros(8, np.float32)})
        assert np.array_equal(got["out"], x[[index(i) for i in range(8)]])

    @pytest.mark.parametrize("pred", ["ult", "ule", "ugt", "uge"])
    def test_unsigned_cmpi_matches_numpy(self, pred):
        rng = np.random.default_rng(5)
        # Equal, mixed-sign and extreme pairs, then random lanes of both signs.
        a_edges = [0, 1, -1, 7, -7, 2**31 - 1, -(2**31), 5, -5]
        b_edges = [0, -1, 1, -7, 7, -(2**31), 2**31 - 1, 5, -5]
        a, b = (
            np.concatenate([np.array(edges, np.int32), rng.integers(-100, 100, 55, np.int32)])
            for edges in (a_edges, b_edges)
        )
        n = len(a)
        mod = ModuleOp("cmp")
        fn = func.func(
            "cmp",
            FunctionType([memref(n, i32), memref(n, i32), memref(n, i1)], []),
            ["a", "b", "out"],
        )
        mod.append(fn.op)
        builder = OpBuilder(fn.entry)
        loop = builder.affine_for(0, n)
        with builder.inside(loop):
            i = loop.induction_variable
            lhs, rhs = (
                builder.insert(affine.load(arg, [i])).result for arg in fn.arguments[:2]
            )
            test = builder.insert(arith.cmpi(pred, lhs, rhs)).result
            builder.insert(affine.store(test, fn.arguments[2], [i]))
        builder.insert(func.return_())
        got = _run_cpp(mod, "cmp", {"a": a, "b": b, "out": np.zeros(n, np.bool_)})
        compare = {"ult": np.less, "ule": np.less_equal,
                   "ugt": np.greater, "uge": np.greater_equal}[pred]
        assert np.array_equal(got["out"], compare(a.view(np.uint32), b.view(np.uint32)))
