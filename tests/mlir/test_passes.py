"""MLIR passes: canonicalisation, unrolling, and the lowering chain —
each checked for semantic preservation by running the lowered IR against
the NumPy reference."""

import numpy as np
import pytest

from repro.ir import run_kernel
from repro.mlir import ModuleOp, verify_module
from repro.mlir.passes import (
    AffineToSCF,
    AffineUnroll,
    ArrayPartition,
    Canonicalize,
    LoopPipeline,
    MLIRPassManager,
    convert_to_llvm,
    lowering_pipeline,
)
from repro.mlir.passes.array_partition import get_array_partition
from repro.mlir.passes.loop_pipeline import loop_directive_attrs, set_loop_directives
from repro.workloads import build_kernel

from ..conftest import rand_f32, run_lowered


def run_one(module: ModuleOp, pass_):
    pm = MLIRPassManager()
    pm.add(pass_)
    return pm.run(module)[0]


def numpy_outputs(spec, arrays):
    return spec.reference(**{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args)


class TestCanonicalize:
    def test_folds_constants_in_kernels(self):
        spec = build_kernel("gemm", NI=3, NJ=3, NK=3)
        from repro.mlir.dialects import arith
        from repro.mlir import OpBuilder, core

        fn = spec.fn
        b = OpBuilder(fn.entry)
        b.position_before(fn.entry.operations[0])
        c1 = b.const_index(2)
        c2 = b.const_index(3)
        b.insert(arith.addi(c1, c2))  # dead constant expression
        stats = run_one(spec.module, Canonicalize())
        assert stats.rewrites > 0
        verify_module(spec.module)

    def test_preserves_semantics(self):
        spec = build_kernel("atax", M=4, N=5)
        arrays = spec.make_inputs(0)
        want = numpy_outputs(spec, arrays)
        before = run_lowered(spec.module, spec.name, arrays, spec.scalar_args)
        run_one(spec.module, Canonicalize())
        after = run_lowered(spec.module, spec.name, arrays, spec.scalar_args)
        for key in spec.outputs:
            assert np.array_equal(before[key], after[key]), key
            assert np.allclose(after[key], want[key], rtol=1e-4, atol=1e-5), key


class TestLoopDirectivePasses:
    def test_loop_pipeline_tags_innermost_only(self):
        spec = build_kernel("gemm", NI=3, NJ=3, NK=3)
        stats = run_one(spec.module, LoopPipeline(ii=2))
        assert stats.details.get("pipelined-loop") == 1
        loops = [op for op in spec.fn.op.walk() if op.name == "affine.for"]
        tagged = [l for l in loops if l.has_attr("hls.pipeline")]
        assert len(tagged) == 1
        assert loop_directive_attrs(tagged[0]) == {"pipeline": True, "ii": 2}

    def test_array_partition_tags_memref_args(self):
        spec = build_kernel("gemm", NI=3, NJ=3, NK=3)
        stats = run_one(spec.module, ArrayPartition(kind="cyclic", factor=2))
        assert stats.details.get("partitioned-array") == 3
        part = get_array_partition(spec.fn, "A")
        assert part == {"kind": "cyclic", "factor": 2, "dim": 1}

    def test_set_array_partition_validates(self):
        spec = build_kernel("gemm", NI=3, NJ=3, NK=3)
        from repro.mlir.passes.array_partition import set_array_partition

        with pytest.raises(ValueError):
            set_array_partition(spec.fn, "A", "diagonal")
        with pytest.raises(ValueError):
            set_array_partition(spec.fn, "nonexistent", "cyclic")


class TestAffineUnroll:
    def _sum_kernel(self, n):
        """out[0] += in[i] for i < n."""
        from repro.mlir import FunctionType, OpBuilder, f32, memref
        from repro.mlir.dialects import affine, arith, func

        mod = ModuleOp("unroll")
        fn = func.func("sum", FunctionType([memref(n, f32), memref(1, f32)], []),
                       ["x", "out"])
        mod.append(fn.op)
        b = OpBuilder(fn.entry)
        loop = b.affine_for(0, n)
        with b.inside(loop):
            i = loop.induction_variable
            zero = b.const_index(0)
            xv = b.insert(affine.load(fn.arguments[0], [i])).result
            acc = b.insert(affine.load(fn.arguments[1], [zero])).result
            b.insert(affine.store(b.insert(arith.addf(acc, xv)).result,
                                  fn.arguments[1], [zero]))
        b.insert(func.return_())
        return mod, fn, loop

    def _run_sum(self, mod, n, seed=0):
        """``out[0]`` after ``@sum`` ran, checked against ``x.sum()``."""
        x = rand_f32((n,), seed)
        out = run_lowered(mod, "sum", {"x": x, "out": np.zeros(1, np.float32)})
        total = out["out"][0]
        assert total == pytest.approx(float(x.sum()), rel=1e-5, abs=1e-6)
        return total

    def test_full_unroll_eliminates_loop(self):
        mod, fn, loop = self._sum_kernel(6)
        set_loop_directives(loop.op, unroll_full=True)
        before = self._run_sum(mod, 6)
        stats = run_one(mod, AffineUnroll())
        assert stats.details.get("full-unrolled") == 1
        assert not any(op.name == "affine.for" for op in mod.walk())
        verify_module(mod)
        assert self._run_sum(mod, 6) == before

    def test_partial_unroll_divisible(self):
        mod, fn, loop = self._sum_kernel(8)
        set_loop_directives(loop.op, unroll=4)
        before = self._run_sum(mod, 8)
        stats = run_one(mod, AffineUnroll())
        assert stats.details.get("partial-unrolled") == 1
        loops = [op for op in mod.walk() if op.name == "affine.for"]
        assert len(loops) == 1
        from repro.mlir.dialects.affine import ForOp

        assert ForOp(loops[0]).step == 4
        assert self._run_sum(mod, 8) == before

    def test_partial_unroll_with_epilogue(self):
        mod, fn, loop = self._sum_kernel(10)
        set_loop_directives(loop.op, unroll=4)
        before = self._run_sum(mod, 10)
        run_one(mod, AffineUnroll())
        verify_module(mod)
        assert self._run_sum(mod, 10) == before

    def test_unroll_with_iter_args(self):
        from repro.mlir import FunctionType, OpBuilder, f32, memref
        from repro.mlir.dialects import affine, arith, func

        mod = ModuleOp("ia")
        fn = func.func("sum", FunctionType([memref(8, f32), memref(1, f32)], []),
                       ["x", "out"])
        mod.append(fn.op)
        b = OpBuilder(fn.entry)
        zero = b.const_float(0.0, f32)
        loop = b.affine_for(0, 8, iter_inits=[zero])
        with b.at_end(loop.body):
            xv = b.insert(affine.load(fn.arguments[0], [loop.induction_variable])).result
            acc = b.insert(arith.addf(loop.iter_args[0], xv)).result
            b.insert(affine.yield_([acc]))
        b.insert(affine.store(loop.results[0], fn.arguments[1], [b.const_index(0)]))
        b.insert(func.return_())
        set_loop_directives(loop.op, unroll_full=True)
        before = self._run_sum(mod, 8, seed=5)
        run_one(mod, AffineUnroll())
        verify_module(mod)
        assert self._run_sum(mod, 8, seed=5) == before

    def test_pipeline_attr_survives_partial_unroll(self):
        mod, fn, loop = self._sum_kernel(8)
        set_loop_directives(loop.op, pipeline=True, ii=1, unroll=2)
        run_one(mod, AffineUnroll())
        loops = [op for op in mod.walk() if op.name == "affine.for"]
        assert loops[0].has_attr("hls.pipeline")
        assert not loops[0].has_attr("hls.unroll")


class TestLoweringChain:
    KERNELS = [
        ("gemm", {"NI": 4, "NJ": 4, "NK": 4}),
        ("atax", {"M": 4, "N": 5}),
        ("syrk", {"N": 4, "M": 3}),
        ("jacobi_1d", {"N": 10, "TSTEPS": 2}),
        ("symm", {"M": 4, "N": 4}),  # exercises iter_args through lowering
    ]

    @pytest.mark.parametrize("name,sizes", KERNELS)
    def test_affine_to_scf_preserves_semantics(self, name, sizes):
        spec = build_kernel(name, **sizes)
        arrays = spec.make_inputs(0)
        want = numpy_outputs(spec, arrays)
        before = run_lowered(spec.module, spec.name, arrays, spec.scalar_args)
        run_one(spec.module, AffineToSCF())
        assert not any(op.name.startswith("affine.") for op in spec.module.walk())
        verify_module(spec.module)
        after = run_lowered(spec.module, spec.name, arrays, spec.scalar_args)
        for key in spec.outputs:
            assert np.array_equal(before[key], after[key]), (name, key)
            assert np.allclose(after[key], want[key], rtol=1e-4, atol=1e-5), (name, key)

    @pytest.mark.parametrize("name,sizes", KERNELS)
    def test_full_lowering_to_llvm_preserves_semantics(self, name, sizes):
        spec = build_kernel(name, **sizes)
        arrays = spec.make_inputs(0)
        lowering_pipeline().run(spec.module)
        assert not any(
            op.name.startswith(("affine.", "scf.")) for op in spec.module.walk()
        )
        irmod = convert_to_llvm(spec.module)
        got = run_kernel(irmod, spec.name, arrays, spec.scalar_args)
        want = numpy_outputs(spec, arrays)
        for out in spec.outputs:
            assert np.allclose(got[out], want[out], rtol=1e-4, atol=1e-5), (name, out)

    def test_directives_reach_llvm_metadata(self):
        from repro.ir.metadata import decode_loop_directives

        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        loops = [op for op in spec.fn.op.walk() if op.name == "affine.for"]
        set_loop_directives(loops[-1], pipeline=True, ii=2)
        lowering_pipeline().run(spec.module)
        irmod = convert_to_llvm(spec.module)
        tagged = [
            inst
            for f in irmod.defined_functions()
            for b in f.blocks
            for inst in b.instructions
            if "llvm.loop" in inst.metadata
        ]
        assert len(tagged) == 1
        directives, dialects = decode_loop_directives(tagged[0].metadata["llvm.loop"])
        assert directives.pipeline and directives.ii == 2
        assert dialects == {"modern"}

    def test_lowered_module_is_modern(self):
        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        lowering_pipeline().run(spec.module)
        irmod = convert_to_llvm(spec.module)
        assert irmod.opaque_pointers
        # Descriptor structs present.
        from repro.ir.instructions import InsertValue

        assert any(
            isinstance(i, InsertValue)
            for f in irmod.defined_functions()
            for i in f.instructions()
        )
        assert irmod.get_function("gemm").hls_memref_args["A"]["shape"] == (4, 4)

    def test_partition_attrs_carried(self):
        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        run_one(spec.module, ArrayPartition(kind="cyclic", factor=2))
        lowering_pipeline().run(spec.module)
        irmod = convert_to_llvm(spec.module)
        fn = irmod.get_function("gemm")
        assert fn.hls_partitions["A"]["factor"] == 2

    def test_maxsi_lowering_emits_modern_intrinsic(self):
        from repro.mlir import FunctionType, OpBuilder, index, memref, f32
        from repro.mlir.dialects import affine, arith, func

        from repro.mlir.dialects import memref as mr

        mod = ModuleOp("mx")
        fn = func.func(
            "f", FunctionType([memref(4, f32), index, index], []), ["x", "n", "m"]
        )
        mod.append(fn.op)
        b = OpBuilder(fn.entry)
        mx = b.insert(arith.maxsi(fn.arguments[1], fn.arguments[2])).result
        b.insert(mr.store(b.const_float(0.0, f32), fn.arguments[0], [mx]))
        b.insert(func.return_())
        lowering_pipeline().run(mod)
        # Prevent canonicalisation fold by checking pre-canonicalised path:
        irmod = convert_to_llvm(mod)
        names = {f.name for f in irmod.declarations()}
        assert any(n.startswith("llvm.smax") for n in names)
