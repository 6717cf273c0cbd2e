"""Structured mini-MLIR semantics, run lowered through the IR interpreter,
and structural verification."""

import numpy as np
import pytest

from repro.ir import Interpreter, InterpreterError, run_kernel
from repro.mlir import (
    FunctionType,
    MLIRVerificationError,
    ModuleOp,
    OpBuilder,
    f32,
    memref,
    verify_module,
)
from repro.mlir.affine_expr import d
from repro.mlir.dialects import affine, arith, func, math, memref as mr, scf

from ..conftest import lower_clone, run_lowered


def make_fn(mod, name, inputs, arg_names):
    fn = func.func(name, FunctionType(inputs, []), arg_names)
    mod.append(fn.op)
    return fn, OpBuilder(fn.entry)


class TestInterpreter:
    """Each kernel is lowered (``lower_clone``) and run by the IR interpreter."""

    def test_iter_args_reduction(self):
        mod = ModuleOp("red")
        fn, b = make_fn(mod, "dot", [memref(8, f32), memref(8, f32), memref(1, f32)],
                        ["x", "y", "out"])
        zero = b.const_float(0.0, f32)
        loop = b.affine_for(0, 8, iter_inits=[zero])
        with b.at_end(loop.body):
            iv = loop.induction_variable
            xv = b.insert(affine.load(fn.arguments[0], [iv])).result
            yv = b.insert(affine.load(fn.arguments[1], [iv])).result
            prod = b.insert(arith.mulf(xv, yv)).result
            acc = b.insert(arith.addf(loop.iter_args[0], prod)).result
            b.insert(affine.yield_([acc]))
        b.insert(affine.store(loop.results[0], fn.arguments[2], [b.const_index(0)]))
        b.insert(func.return_())
        verify_module(mod)
        x = np.arange(8, dtype=np.float32)
        y = np.ones(8, dtype=np.float32)
        out = run_lowered(mod, "dot", {"x": x, "y": y, "out": np.zeros(1, np.float32)})
        assert out["out"][0] == pytest.approx(float(x.sum()))

    def test_triangular_bounds(self):
        mod = ModuleOp("tri")
        fn, b = make_fn(mod, "count", [memref(8, f32)], ["out"])
        li = b.affine_for(0, 8)
        with b.inside(li):
            i = li.induction_variable
            lj = b.affine_for(0, d(0) + 1, upper_operands=[i])
            with b.inside(lj):
                j = lj.induction_variable
                one = b.const_float(1.0, f32)
                cur = b.insert(affine.load(fn.arguments[0], [i])).result
                b.insert(affine.store(b.insert(arith.addf(cur, one)).result,
                                      fn.arguments[0], [i]))
        b.insert(func.return_())
        out = run_lowered(mod, "count", {"out": np.zeros(8, np.float32)})
        assert np.array_equal(out["out"], np.arange(1, 9, dtype=np.float32))

    def test_scf_if(self):
        mod = ModuleOp("ifm")
        fn = func.func("clamp", FunctionType([f32], [f32]), ["x"])
        mod.append(fn.op)
        b = OpBuilder(fn.entry)
        zero = b.const_float(0.0, f32)
        cond = b.insert(arith.cmpf("olt", fn.arguments[0], zero)).result
        if_op = scf.if_(cond, result_types=[f32])
        b.insert(if_op.op)
        with b.at_end(if_op.then_block):
            b.insert(scf.yield_([zero]))
        with b.at_end(if_op.else_block):
            b.insert(scf.yield_([fn.arguments[0]]))
        b.insert(func.return_([if_op.results[0]]))
        interp = Interpreter(lower_clone(mod))
        assert interp.run("clamp", [-2.0]) == 0.0
        assert interp.run("clamp", [3.0]) == 3.0

    def test_math_ops(self):
        mod = ModuleOp("mm")
        fn = func.func("f", FunctionType([f32], [f32]), ["x"])
        mod.append(fn.op)
        b = OpBuilder(fn.entry)
        r = b.insert(math.sqrt(fn.arguments[0])).result
        b.insert(func.return_([r]))
        assert Interpreter(lower_clone(mod)).run("f", [16.0]) == 4.0

    def test_local_alloc_zeroed(self):
        mod = ModuleOp("al")
        fn, b = make_fn(mod, "f", [memref(4, f32)], ["out"])
        tmp = b.insert(mr.alloc(memref(4, f32))).result
        b.insert(mr.copy(tmp, fn.arguments[0]))
        b.insert(func.return_())
        out = run_lowered(mod, "f", {"out": np.ones(4, np.float32)})
        assert np.array_equal(out["out"], np.zeros(4, np.float32))

    def test_missing_function(self):
        with pytest.raises(InterpreterError, match="no function @nope"):
            run_kernel(lower_clone(ModuleOp("empty")), "nope", {})


class TestVerifier:
    def test_valid_module_passes(self, gemm_spec):
        verify_module(gemm_spec.module)

    def test_missing_terminator_caught(self):
        mod = ModuleOp("bad")
        fn, b = make_fn(mod, "f", [], [])
        loop = b.affine_for(0, 4)  # body left empty (no yield)
        with pytest.raises(MLIRVerificationError, match="empty"):
            verify_module(mod)

    def test_wrong_terminator_caught(self):
        mod = ModuleOp("bad2")
        fn, b = make_fn(mod, "f", [], [])
        loop = b.affine_for(0, 4)
        with b.at_end(loop.body):
            b.insert(scf.yield_())  # affine.for must end in affine.yield
        b.insert(func.return_())
        with pytest.raises(MLIRVerificationError, match="affine.yield"):
            verify_module(mod)

    def test_yield_arity_checked(self):
        mod = ModuleOp("bad3")
        fn, b = make_fn(mod, "f", [], [])
        zero = b.const_float(0.0, f32)
        loop = b.affine_for(0, 4, iter_inits=[zero])
        with b.at_end(loop.body):
            b.insert(affine.yield_())  # should carry one value
        b.insert(func.return_())
        with pytest.raises(MLIRVerificationError, match="affine.yield carries"):
            verify_module(mod)

    def test_use_outside_scope_caught(self):
        mod = ModuleOp("scope")
        fn, b = make_fn(mod, "f", [memref(4, f32)], ["m"])
        loop = b.affine_for(0, 4)
        with b.inside(loop):
            pass
        # Using the loop IV *after* the loop is a scoping violation.
        iv = loop.induction_variable
        bad = arith.addi(iv, iv)
        fn.entry.append(bad)
        b.insert(func.return_())
        with pytest.raises(MLIRVerificationError, match="defined later or outside"):
            verify_module(mod)
