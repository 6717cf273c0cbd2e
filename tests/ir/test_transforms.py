"""Transform passes: each must simplify what it claims and preserve
interpreter semantics on real kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import IRBuilder, Interpreter, Module, run_kernel, verify_module
from repro.ir import types as irt
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.ir.transforms import (
    DeadCodeElimination,
    InstCombine,
    Mem2Reg,
    PassManager,
    SimplifyCFG,
    SparseConditionalConstantPropagation,
    standard_cleanup_pipeline,
)

from ..conftest import build_axpy_module, lowered_gemm_ir, rand_f32


def run_pass(module, pass_):
    pm = PassManager()
    pm.add(pass_)
    return pm.run(module)[0]


class TestMem2Reg:
    def _scalar_alloca_fn(self):
        m = Module("m2r")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        slot = b.alloca(irt.i32, name="local")
        b.store(fn.arguments[0], slot)
        v = b.load(irt.i32, slot)
        b.ret(v)
        return m, fn

    def test_promotes_straightline_alloca(self):
        m, fn = self._scalar_alloca_fn()
        stats = run_pass(m, Mem2Reg())
        assert stats.details.get("promoted-alloca") == 1
        assert not any(isinstance(i, (Alloca, Load, Store)) for i in fn.instructions())
        assert Interpreter(m).run("f", [42]) == 42

    def test_places_phi_at_join(self):
        m = Module("phi")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i1]), ["c"])
        entry = fn.add_block("entry")
        then = fn.add_block("then")
        merge = fn.add_block("merge")
        b = IRBuilder(entry)
        slot = b.alloca(irt.i32)
        b.store(b.i32_(1), slot)
        b.cond_br(fn.arguments[0], then, merge)
        b.position_at_end(then)
        b.store(b.i32_(2), slot)
        b.br(merge)
        b.position_at_end(merge)
        b.ret(b.load(irt.i32, slot))
        run_pass(m, Mem2Reg())
        verify_module(m)
        assert any(isinstance(i, Phi) for i in fn.instructions())
        interp = Interpreter(m)
        assert interp.run("f", [1]) == 2
        assert interp.run("f", [0]) == 1

    def test_loop_carried_promotion_preserves_semantics(self):
        # sum = 0; for(i<n) sum += i  via allocas.
        m = Module("loop")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["n"])
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        i_slot = b.alloca(irt.i32)
        s_slot = b.alloca(irt.i32)
        b.store(b.i32_(0), i_slot)
        b.store(b.i32_(0), s_slot)
        b.br(header)
        b.position_at_end(header)
        iv = b.load(irt.i32, i_slot)
        b.cond_br(b.icmp("slt", iv, fn.arguments[0]), body, exit_)
        b.position_at_end(body)
        s = b.load(irt.i32, s_slot)
        iv2 = b.load(irt.i32, i_slot)
        b.store(b.add(s, iv2), s_slot)
        b.store(b.add(iv2, b.i32_(1)), i_slot)
        b.br(header)
        b.position_at_end(exit_)
        b.ret(b.load(irt.i32, s_slot))

        before = Interpreter(m).run("f", [10])
        run_pass(m, Mem2Reg())
        verify_module(m)
        assert Interpreter(m).run("f", [10]) == before == 45

    def test_unpromotable_escaped_alloca_kept(self):
        m = Module("esc")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(irt.f32)
        # Escapes via GEP -> not promotable.
        b.gep(irt.f32, slot, [b.i64_(0)])
        b.ret()
        run_pass(m, Mem2Reg())
        assert any(isinstance(i, Alloca) for i in fn.instructions())

    def test_load_without_store_reads_undef_but_erases(self):
        m = Module("undef")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(irt.i32)
        b.ret(b.load(irt.i32, slot))
        stats = run_pass(m, Mem2Reg())
        assert stats.details.get("promoted-undef") == 1
        assert not any(isinstance(i, Alloca) for i in fn.instructions())


class TestDCE:
    def test_removes_unused_pure_chain(self, axpy_module):
        fn = axpy_module.get_function("axpy")
        b = IRBuilder(fn.entry).position_before(fn.entry.terminator)
        dead1 = b.add(b.i32_(1), b.i32_(2), "dead1")
        b.add(dead1, b.i32_(3), "dead2")
        stats = run_pass(axpy_module, DeadCodeElimination())
        assert stats.details.get("dead-instruction") == 2
        verify_module(axpy_module)

    def test_keeps_stores(self, axpy_module):
        before = sum(1 for _ in axpy_module.get_function("axpy").instructions())
        run_pass(axpy_module, DeadCodeElimination())
        after = sum(1 for _ in axpy_module.get_function("axpy").instructions())
        assert after == before

    def test_removes_unreachable_blocks(self, axpy_module):
        fn = axpy_module.get_function("axpy")
        dead = fn.add_block("dead")
        IRBuilder(dead).br(fn.blocks[1])  # jump into the loop from nowhere
        # Phi in loop header must tolerate/drop the extra edge.
        stats = run_pass(axpy_module, DeadCodeElimination())
        assert stats.details.get("unreachable-block") == 1
        verify_module(axpy_module)


class TestSCCP:
    def test_folds_constant_arithmetic(self):
        m = Module("fold")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        b = IRBuilder(fn.add_block("entry"))
        v = b.add(b.i32_(4), b.i32_(5))
        v = b.mul(v, b.i32_(2))
        b.ret(v)
        run_pass(m, SparseConditionalConstantPropagation())
        run_pass(m, DeadCodeElimination())
        insts = list(fn.instructions())
        assert len(insts) == 1  # just ret
        assert Interpreter(m).run("f", []) == 18

    def test_folds_constant_branch(self):
        m = Module("br")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        entry = fn.add_block("entry")
        then = fn.add_block("then")
        other = fn.add_block("other")
        b = IRBuilder(entry)
        cond = b.icmp("slt", b.i32_(1), b.i32_(2))
        b.cond_br(cond, then, other)
        b.position_at_end(then)
        b.ret(b.i32_(1))
        b.position_at_end(other)
        b.ret(b.i32_(2))
        stats = run_pass(m, SparseConditionalConstantPropagation())
        assert stats.details.get("branch-folded") == 1
        run_pass(m, DeadCodeElimination())
        assert len(fn.blocks) == 2
        assert Interpreter(m).run("f", []) == 1

    def test_folds_fcmp_free_select(self):
        m = Module("sel")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        from repro.ir.values import ConstantInt

        sel = b.select(ConstantInt(irt.i1, 1), fn.arguments[0], b.i32_(0))
        b.ret(sel)
        run_pass(m, SparseConditionalConstantPropagation())
        # select with constant cond folds to the argument.
        assert Interpreter(m).run("f", [7]) == 7


class TestSimplifyCFG:
    def test_merges_straightline_blocks(self):
        m = Module("merge")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        a = fn.add_block("a")
        bblock = fn.add_block("b")
        b = IRBuilder(a)
        v = b.i32_(5)
        b.br(bblock)
        b.position_at_end(bblock)
        b.ret(b.i32_(5))
        stats = run_pass(m, SimplifyCFG())
        assert len(fn.blocks) == 1
        verify_module(m)

    def test_folds_single_incoming_phis(self, axpy_module):
        fn = axpy_module.get_function("axpy")
        # Create a block with a single-incoming phi.
        from repro.ir.instructions import Phi

        body = fn.blocks[2]
        phi = Phi(irt.i32, "trivial")
        phi.add_incoming(fn.blocks[1].phis()[0], fn.blocks[1])
        body.instructions.insert(0, phi)
        phi.parent = body
        stats = run_pass(axpy_module, SimplifyCFG())
        assert stats.details.get("single-incoming-phi", 0) >= 1
        verify_module(axpy_module)

    def test_preserves_latch_metadata(self):
        from repro.ir.metadata import LoopDirectives, encode_loop_directives

        m = build_axpy_module()
        fn = m.get_function("axpy")
        latch = fn.blocks[2].terminator
        latch.metadata["llvm.loop"] = encode_loop_directives(
            LoopDirectives(pipeline=True, ii=1), dialect="hls"
        )
        run_pass(m, SimplifyCFG())
        # The latch branch (with directives) must survive.
        survivors = [
            i for b in fn.blocks for i in b.instructions if "llvm.loop" in i.metadata
        ]
        assert len(survivors) == 1


class TestInstCombine:
    def _fold_one(self, build):
        m = Module("ic")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        b.ret(build(b, fn.arguments[0]))
        run_pass(m, InstCombine())
        return m, fn

    def test_add_zero(self):
        m, fn = self._fold_one(lambda b, x: b.add(x, b.i32_(0)))
        assert len(list(fn.instructions())) == 1

    def test_mul_one(self):
        m, fn = self._fold_one(lambda b, x: b.mul(x, b.i32_(1)))
        assert len(list(fn.instructions())) == 1

    def test_mul_power_of_two_becomes_shift(self):
        m, fn = self._fold_one(lambda b, x: b.mul(x, b.i32_(8)))
        opcodes = [i.opcode for i in fn.instructions()]
        assert "shl" in opcodes and "mul" not in opcodes
        assert Interpreter(m).run("f", [5]) == 40

    def test_sub_self_is_zero(self):
        m, fn = self._fold_one(lambda b, x: b.sub(x, x))
        assert Interpreter(m).run("f", [123]) == 0

    def test_constant_commuted_right(self):
        m, fn = self._fold_one(lambda b, x: b.add(b.i32_(3), x))
        ret_val = fn.entry.terminator.value
        from repro.ir.values import ConstantInt

        assert isinstance(ret_val.rhs, ConstantInt)

    @given(st.integers(-1000, 1000))
    @settings(max_examples=30, deadline=None)
    def test_identities_preserve_semantics(self, x):
        m = Module("prop")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        v = fn.arguments[0]
        v = b.add(v, b.i32_(0))
        v = b.mul(v, b.i32_(16))
        v = b.xor(v, b.i32_(0))
        v = b.sub(v, b.i32_(0))
        b.ret(v)
        before = Interpreter(m).run("f", [x])
        run_pass(m, InstCombine())
        run_pass(m, DeadCodeElimination())
        verify_module(m)
        assert Interpreter(m).run("f", [x]) == before


class TestCleanupPipelineOnKernels:
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_gemm_semantics_preserved(self, pipeline):
        spec, irmod = lowered_gemm_ir(4, pipeline=pipeline)
        A, B, C = rand_f32((4, 4), 1), rand_f32((4, 4), 2), rand_f32((4, 4), 3)

        def run(mod):
            return run_kernel(mod, "gemm", {"A": A, "B": B, "C": C}, spec.scalar_args)["C"]

        before = run(irmod)
        stats = standard_cleanup_pipeline().run(irmod)
        verify_module(irmod)
        after = run(irmod)
        assert np.allclose(before, after)
        assert sum(s.rewrites for s in stats) > 0
