"""Interpreter semantics: arithmetic edge cases, memory safety, intrinsics,
control flow, and property-based agreement with Python reference semantics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ir import IRBuilder, Interpreter, InterpreterError, Module, run_kernel
from repro.ir import types as irt
from repro.ir.interpreter import MemoryBuffer, Pointer, buffer_from_numpy, numpy_from_buffer
from repro.ir.values import ConstantFloat, ConstantInt, ConstantPointerNull

from ..conftest import build_axpy_module


def _unary_fn(body, param=irt.i32, ret=irt.i32, nparams=1):
    m = Module("t")
    fn = m.add_function(
        "f", irt.function_type(ret, [param] * nparams),
        [f"p{i}" for i in range(nparams)],
    )
    b = IRBuilder(fn.add_block("entry"))
    b.ret(body(b, fn.arguments))
    return m


def _one_block(build, params=(), ret=irt.void):
    """``f`` with a single entry block filled by ``build(builder, args)``."""
    m = Module("t")
    fn = m.add_function(
        "f", irt.function_type(ret, list(params)), [f"p{i}" for i in range(len(params))]
    )
    build(IRBuilder(fn.add_block("entry")), fn.arguments)
    return m


class TestIntegerSemantics:
    def _binop(self, op, l, r, type=irt.i32):
        m = _unary_fn(lambda b, a: b.binop(op, a[0], a[1]), param=type, nparams=2)
        return Interpreter(m).run("f", [l, r])

    def test_add_wraps(self):
        assert self._binop("add", 2**31 - 1, 1) == -(2**31)

    def test_sdiv_truncates_toward_zero(self):
        assert self._binop("sdiv", -7, 2) == -3
        assert self._binop("sdiv", 7, -2) == -3

    def test_srem_sign_of_dividend(self):
        assert self._binop("srem", -7, 2) == -1
        assert self._binop("srem", 7, -2) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            self._binop("sdiv", 1, 0)
        with pytest.raises(InterpreterError):
            self._binop("srem", 1, 0)

    def test_udiv_is_unsigned(self):
        # -1 as u32 is 4294967295.
        assert self._binop("udiv", -1, 2) == (2**32 - 1) // 2

    def test_shifts(self):
        assert self._binop("shl", 1, 5) == 32
        assert self._binop("ashr", -8, 1) == -4
        assert self._binop("lshr", -8, 1) == (2**32 - 8) >> 1

    @given(
        st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
        st.integers(-(2**31), 2**31 - 1),
        st.integers(-(2**31), 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_binops_match_python_mod_2_32(self, op, l, r):
        got = self._binop(op, l, r)
        want = {
            "add": l + r, "sub": l - r, "mul": l * r,
            "and": l & r, "or": l | r, "xor": l ^ r,
        }[op]
        assert (got - want) % (2**32) == 0
        assert -(2**31) <= got <= 2**31 - 1

    @given(
        st.integers(-(2**31), 2**31 - 1),
        st.integers(-(2**31), 2**31 - 1).filter(lambda v: v != 0),
    )
    @settings(max_examples=40, deadline=None)
    def test_sdiv_srem_invariant(self, l, r):
        assume(not (l == -(2**31) and r == -1))  # overflow case
        q = self._binop("sdiv", l, r)
        rem = self._binop("srem", l, r)
        assert q * r + rem == l
        assert rem == 0 or abs(rem) < abs(r)


class TestICmp:
    def _cmp(self, pred, l, r):
        m = _unary_fn(
            lambda b, a: b.icmp(pred, a[0], a[1]), param=irt.i32, ret=irt.i1, nparams=2
        )
        return Interpreter(m).run("f", [l, r])

    def test_signed_vs_unsigned(self):
        assert self._cmp("slt", -1, 0) == 1
        assert self._cmp("ult", -1, 0) == 0  # -1 is max unsigned

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=40, deadline=None)
    def test_signed_predicates(self, l, r):
        assert self._cmp("slt", l, r) == int(l < r)
        assert self._cmp("sge", l, r) == int(l >= r)
        assert self._cmp("eq", l, r) == int(l == r)


class TestFloatSemantics:
    def test_f32_rounding(self):
        m = _unary_fn(
            lambda b, a: b.fadd(a[0], a[1]), param=irt.f32, ret=irt.f32, nparams=2
        )
        got = Interpreter(m).run("f", [0.1, 0.2])
        assert got == float(np.float32(np.float32(0.1) + np.float32(0.2)))

    def test_fdiv_by_zero_gives_inf(self):
        m = _unary_fn(
            lambda b, a: b.fdiv(a[0], a[1]), param=irt.f32, ret=irt.f32, nparams=2
        )
        assert math.isinf(Interpreter(m).run("f", [1.0, 0.0]))

    def test_fcmp_unordered(self):
        m = _unary_fn(
            lambda b, a: b.fcmp("une", a[0], a[1]),
            param=irt.f64, ret=irt.i1, nparams=2,
        )
        assert Interpreter(m).run("f", [math.nan, 1.0]) == 1
        m2 = _unary_fn(
            lambda b, a: b.fcmp("oeq", a[0], a[1]),
            param=irt.f64, ret=irt.i1, nparams=2,
        )
        assert Interpreter(m2).run("f", [math.nan, math.nan]) == 0


def _libm_call(name, ty, nargs=1):
    return lambda b, a: b.intrinsic(name, ty, list(a[:nargs]))


# (id, builder, param types, return type, args, expected result); expected
# compares with ``repr`` so NaN and the sign of infinity are both pinned.
IEEE_CASES = [
    ("fmul-f32-overflow", lambda b, a: b.fmul(a[0], a[1]),
     [irt.f32, irt.f32], irt.f32, [1e30, 1e30], math.inf),
    ("fmul-f32-negative-overflow", lambda b, a: b.fmul(a[0], a[1]),
     [irt.f32, irt.f32], irt.f32, [-1e30, 1e30], -math.inf),
    ("fadd-half-overflow", lambda b, a: b.fadd(a[0], a[1]),
     [irt.half, irt.half], irt.half, [60000.0, 60000.0], math.inf),
    ("fptrunc-overflow", lambda b, a: b.cast("fptrunc", a[0], irt.f32),
     [irt.f64], irt.f32, [1e300], math.inf),
    ("f32-argument-overflow", lambda b, a: a[0],
     [irt.f32], irt.f32, [-1e300], -math.inf),
    ("llvm.sqrt-negative", _libm_call("llvm.sqrt.f32", irt.f32),
     [irt.f32], irt.f32, [-4.0], math.nan),
    ("sqrtf-negative", _libm_call("sqrtf", irt.f32),
     [irt.f32], irt.f32, [-1.0], math.nan),
    ("fdiv-by-negative-zero", lambda b, a: b.fdiv(a[0], a[1]),
     [irt.f32, irt.f32], irt.f32, [1.0, -0.0], -math.inf),
    ("fdiv-nan-by-zero", lambda b, a: b.fdiv(a[0], a[1]),
     [irt.f64, irt.f64], irt.f64, [math.nan, 0.0], math.nan),
    ("log-zero", _libm_call("llvm.log.f64", irt.f64),
     [irt.f64], irt.f64, [0.0], -math.inf),
    ("log-negative", _libm_call("logf", irt.f32),
     [irt.f32], irt.f32, [-1.0], math.nan),
    ("exp-range", _libm_call("llvm.exp.f64", irt.f64),
     [irt.f64], irt.f64, [1000.0], math.inf),
    ("exp-f32-overflow", _libm_call("expf", irt.f32),
     [irt.f32], irt.f32, [100.0], math.inf),
    ("pow-range", _libm_call("pow", irt.f64, 2),
     [irt.f64, irt.f64], irt.f64, [10.0, 400.0], math.inf),
    ("pow-pole", _libm_call("llvm.pow.f64", irt.f64, 2),
     [irt.f64, irt.f64], irt.f64, [0.0, -1.0], math.inf),
    ("pow-domain", _libm_call("powf", irt.f32, 2),
     [irt.f32, irt.f32], irt.f32, [-8.0, 0.5], math.nan),
    ("sin-inf", _libm_call("llvm.sin.f64", irt.f64),
     [irt.f64], irt.f64, [math.inf], math.nan),
    ("cos-inf", _libm_call("cosf", irt.f32),
     [irt.f32], irt.f32, [-math.inf], math.nan),
    ("frem-inf-dividend", lambda b, a: b.binop("frem", a[0], a[1]),
     [irt.f64, irt.f64], irt.f64, [math.inf, 2.0], math.nan),
    ("floor-nan", _libm_call("llvm.floor.f32", irt.f32),
     [irt.f32], irt.f32, [math.nan], math.nan),
    ("floor-inf", _libm_call("floor", irt.f64),
     [irt.f64], irt.f64, [math.inf], math.inf),
    ("ceil-negative-inf", _libm_call("llvm.ceil.f64", irt.f64),
     [irt.f64], irt.f64, [-math.inf], -math.inf),
]


class TestIEEEFloatResults:
    """Overflow, domain and pole errors give IEEE results, never a leaked
    Python ``OverflowError``/``ValueError``."""

    @pytest.mark.parametrize(
        "build,params,ret,args,expected",
        [case[1:] for case in IEEE_CASES],
        ids=[case[0] for case in IEEE_CASES],
    )
    def test_special_result(self, build, params, ret, args, expected):
        m = _one_block(lambda b, a: b.ret(build(b, a)), params, ret)
        got = Interpreter(m).run("f", args)
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("op", ["fptosi", "fptoui"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_to_int_of_non_finite_faults(self, op, value):
        m = _one_block(lambda b, a: b.ret(b.cast(op, a[0], irt.i32)), [irt.f64], irt.i32)
        with pytest.raises(InterpreterError, match=f"{op} of non-finite value"):
            Interpreter(m).run("f", [value])

    def test_random_modules_raise_only_interpreter_errors(self):
        from repro.testing import RandomModuleGenerator

        for seed in range(40):
            module = RandomModuleGenerator(seed=seed).generate()
            fn = module.get_function("kernel")
            args = [
                MemoryBuffer(4096) if a.type.is_pointer
                else 3 if a.type.is_integer else 1.25
                for a in fn.arguments
            ]
            try:
                Interpreter(module).run(fn, args)
            except InterpreterError:
                pass


class TestCasts:
    def test_sext_preserves_sign(self):
        m = _unary_fn(lambda b, a: b.sext(a[0], irt.i64), param=irt.i8, ret=irt.i64)
        assert Interpreter(m).run("f", [-5]) == -5

    def test_zext_zero_extends(self):
        m = _unary_fn(lambda b, a: b.zext(a[0], irt.i64), param=irt.i8, ret=irt.i64)
        assert Interpreter(m).run("f", [-1]) == 255

    def test_trunc_wraps(self):
        m = _unary_fn(lambda b, a: b.trunc(a[0], irt.i8), param=irt.i32, ret=irt.i8)
        assert Interpreter(m).run("f", [0x1FF]) == -1

    def test_fptosi_truncates(self):
        m = _unary_fn(
            lambda b, a: b.fptosi(a[0], irt.i32), param=irt.f32, ret=irt.i32
        )
        assert Interpreter(m).run("f", [-2.7]) == -2


class TestMemory:
    def test_out_of_bounds_load_raises(self):
        m = Module("oob")
        fn = m.add_function("f", irt.function_type(irt.f32, [irt.ptr]), ["p"])
        b = IRBuilder(fn.add_block("entry"))
        gep = b.gep(irt.f32, fn.arguments[0], [b.i64_(100)])
        b.ret(b.load(irt.f32, gep))
        buf = MemoryBuffer(16, "small")
        with pytest.raises(InterpreterError, match="out-of-bounds"):
            Interpreter(m).run("f", [Pointer(buf)])

    def test_alloca_isolated_buffers(self):
        m = Module("iso")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        b = IRBuilder(fn.add_block("entry"))
        p1 = b.alloca(irt.i32)
        p2 = b.alloca(irt.i32)
        b.store(b.i32_(1), p1)
        b.store(b.i32_(2), p2)
        b.ret(b.load(irt.i32, p1))
        assert Interpreter(m).run("f", []) == 1

    def test_numpy_buffer_roundtrip(self):
        data = np.arange(6, dtype=np.float32)
        buf = buffer_from_numpy(data)
        back = numpy_from_buffer(buf, np.float32, (6,))
        assert np.array_equal(back, data)

    def test_aggregate_zero_initializer_global(self):
        m = Module("g")
        from repro.ir.values import ConstantAggregateZero

        t = irt.array_of(irt.i32, 4)
        m.add_global("z", t, ConstantAggregateZero(t))
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        b = IRBuilder(fn.add_block("entry"))
        g = m.get_global("z")
        p = b.gep(t, g, [b.i64_(0), b.i64_(2)])
        b.ret(b.load(irt.i32, p))
        assert Interpreter(m).run("f", []) == 0


def _fault(module, args=(), max_steps=50_000_000):
    """Run ``f`` expecting an InterpreterError; returns (message, steps)."""
    interp = Interpreter(module, max_steps=max_steps)
    with pytest.raises(InterpreterError) as info:
        interp.run("f", list(args))
    return str(info.value), interp.steps


class TestFaults:
    """Every fault is an InterpreterError with a pinned message."""

    def test_out_of_bounds_store(self):
        def build(b, a):
            b.store(ConstantFloat(irt.f32, 1.0), b.gep(irt.f32, a[0], [b.i64_(4)]))
            b.ret()

        message, _ = _fault(_one_block(build, [irt.ptr]), [Pointer(MemoryBuffer(16, "small"))])
        assert message == (
            "out-of-bounds access to small: offset 16 size 4 in buffer of 16 bytes"
        )

    def test_load_through_non_pointer(self):
        m = _one_block(lambda b, a: b.ret(b.load(irt.i32, a[0])), [irt.ptr], irt.i32)
        assert _fault(m, [7])[0] == "load through non-pointer 7"

    def test_store_through_non_pointer(self):
        def build(b, a):
            b.store(b.i32_(1), ConstantPointerNull(irt.ptr))
            b.ret()

        assert _fault(_one_block(build))[0] == "store through non-pointer None"

    def test_gep_through_non_pointer(self):
        def build(b, a):
            b.gep(irt.f32, ConstantPointerNull(irt.ptr), [b.i64_(1)])
            b.ret()

        assert _fault(_one_block(build))[0] == "gep through non-pointer None"

    def test_non_dominating_use_faults_only_on_the_skipping_path(self):
        # entry: br %c, then, else; then defines %x; join returns %x, which
        # the (unverified) IR uses although %then does not dominate %join.
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i1, irt.i32]), ["c", "v"])
        entry, then, else_, join = (fn.add_block(n) for n in ("entry", "then", "else", "join"))
        b = IRBuilder(entry)
        b.cond_br(fn.arguments[0], then, else_)
        b.position_at_end(then)
        x = b.add(fn.arguments[1], b.i32_(1), "x")
        b.br(join)
        b.position_at_end(else_)
        b.br(join)
        b.position_at_end(join)
        b.ret(x)
        assert Interpreter(m).run("f", [1, 41]) == 42
        assert _fault(m, [0, 41])[0] == "use of undefined value <BinaryOperator add %x>"

    def test_phi_without_incoming_for_taken_edge(self):
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i1]), ["c"])
        entry, left, right, join = (fn.add_block(n) for n in ("entry", "left", "right", "join"))
        b = IRBuilder(entry)
        b.cond_br(fn.arguments[0], left, right)
        for block in (left, right):
            b.position_at_end(block)
            b.br(join)
        b.position_at_end(join)
        phi = b.phi(irt.i32, "p")
        phi.add_incoming(b.i32_(1), left)
        b.ret(phi)
        assert Interpreter(m).run("f", [1]) == 1
        assert _fault(m, [0])[0] == "phi %p missing incoming for %right"

    def test_phi_in_entry_block(self):
        def build(b, a):
            b.ret(b.phi(irt.i32, "p"))

        assert _fault(_one_block(build, ret=irt.i32))[0] == (
            "phi in entry-reached block %entry with no predecessor"
        )

    def test_block_without_terminator(self):
        m = _one_block(lambda b, a: b.add(a[0], a[0], "twice"), [irt.i32])
        assert _fault(m, [3]) == ("block %entry fell through", 1)

    def test_unreachable(self):
        m = _one_block(lambda b, a: b.unreachable())
        assert _fault(m)[0] == "reached 'unreachable' in @f"

    def test_ordered_pointer_icmp(self):
        m = _one_block(
            lambda b, a: b.ret(b.icmp("ult", a[0], a[1])), [irt.ptr, irt.ptr], irt.i1
        )
        buf = MemoryBuffer(4)
        assert _fault(m, [Pointer(buf), Pointer(buf)])[0] == (
            "ordered pointer comparison unsupported"
        )

    def test_inttoptr(self):
        def build(b, a):
            b.cast("inttoptr", a[0], irt.ptr)
            b.ret()

        assert _fault(_one_block(build, [irt.i64]), [0])[0] == (
            "inttoptr has no meaning in the buffer memory model"
        )

    @pytest.mark.parametrize("op", ["sdiv", "udiv", "srem", "urem"])
    def test_division_by_zero_message(self, op):
        m = _one_block(lambda b, a: b.ret(b.binop(op, a[0], a[1])), [irt.i32] * 2, irt.i32)
        assert _fault(m, [1, 0])[0] == f"{op} by zero"


class TestStepBudget:
    """The budget error fires before the first instruction over budget
    executes, and leaves ``steps == max_steps + 1``."""

    @staticmethod
    def _loop(m, name):
        fn = m.add_function(name, irt.function_type(irt.void, []))
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        b.br(loop)
        return fn

    def test_steps_after_budget_error(self):
        m = Module("inf")
        self._loop(m, "f")
        message, steps = _fault(m, max_steps=1000)
        assert message == "step budget exceeded (1000); possible infinite loop in @f"
        assert steps == 1001

    def test_budget_runs_out_inside_a_callee(self):
        m = Module("inf")
        callee = self._loop(m, "spin")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        b = IRBuilder(fn.add_block("entry"))
        b.call(callee, [])
        b.ret()
        message, steps = _fault(m, max_steps=500)
        assert message == "step budget exceeded (500); possible infinite loop in @spin"
        assert steps == 501

    def test_budget_boundary_inside_a_block(self):
        # Four instructions: three stores and the return.
        def build(b, a):
            for value in (1, 2, 3):
                b.store(b.i32_(value), a[0])
            b.ret()

        m = _one_block(build, [irt.ptr])
        buf = MemoryBuffer(4, "cell")
        interp = Interpreter(m, max_steps=4)
        interp.run("f", [Pointer(buf)])
        assert interp.steps == 4
        buf = MemoryBuffer(4, "cell")
        message, steps = _fault(m, [Pointer(buf)], max_steps=2)
        assert message.startswith("step budget exceeded (2)")
        assert steps == 3
        # The first two stores ran; the third did not.
        assert numpy_from_buffer(buf, np.int32, (1,))[0] == 2


class TestIntrinsics:
    def test_sqrt(self):
        m = _unary_fn(
            lambda b, a: b.intrinsic("llvm.sqrt.f32", irt.f32, [a[0]]),
            param=irt.f32, ret=irt.f32,
        )
        assert Interpreter(m).run("f", [4.0]) == 2.0

    def test_fmuladd(self):
        m = _unary_fn(
            lambda b, a: b.intrinsic("llvm.fmuladd.f32", irt.f32, [a[0], a[1], a[2]]),
            param=irt.f32, ret=irt.f32, nparams=3,
        )
        assert Interpreter(m).run("f", [2.0, 3.0, 1.0]) == 7.0

    def test_smax_smin(self):
        m = _unary_fn(
            lambda b, a: b.intrinsic("llvm.smax.i32", irt.i32, [a[0], a[1]]),
            nparams=2,
        )
        assert Interpreter(m).run("f", [-5, 3]) == 3

    @pytest.mark.parametrize("kind", ["umax", "umin"])
    @pytest.mark.parametrize("width", [8, 32, 64])
    def test_unsigned_min_max_agree_with_their_expansion(self, kind, width):
        from repro.adaptor import IntrinsicLegalization
        from repro.ir.transforms import PassManager

        ty = irt.IntegerType(width)
        half = 1 << (width - 1)

        def build():
            return _unary_fn(
                lambda b, a: b.intrinsic(f"llvm.{kind}.i{width}", ty, [a[0], a[1]]),
                param=ty, ret=ty, nparams=2,
            )

        called, expanded = build(), build()
        manager = PassManager()
        manager.add(IntrinsicLegalization())
        manager.run(expanded)
        signed, unsigned = (np.dtype(f"{c}{width // 8}") for c in "iu")
        pick = np.maximum if kind == "umax" else np.minimum
        pairs = [(-1, 5), (5, -1), (-half, half - 1), (-3, -7), (0, -1), (7, 3)]
        for l, r in pairs:
            got = Interpreter(called).run("f", [l, r])
            assert got == Interpreter(expanded).run("f", [l, r]), (l, r)
            lanes = np.array([l, r], dtype=signed).view(unsigned)
            want = np.array([pick(lanes[0], lanes[1])], dtype=unsigned).view(signed)[0]
            assert got == int(want), (l, r)

    def test_memcpy(self):
        m = Module("cp")
        fn = m.add_function("f", irt.function_type(irt.void, [irt.ptr, irt.ptr]), ["d", "s"])
        b = IRBuilder(fn.add_block("entry"))
        b.intrinsic(
            "llvm.memcpy.p0.p0.i64", irt.void,
            [fn.arguments[0], fn.arguments[1], b.i64_(8),
             ConstantInt(irt.i1, 0)],
        )
        b.ret()
        src = buffer_from_numpy(np.array([1.5, 2.5], dtype=np.float32))
        dst = MemoryBuffer(8)
        Interpreter(m).run("f", [Pointer(dst), Pointer(src)])
        assert np.array_equal(
            numpy_from_buffer(dst, np.float32, (2,)), [1.5, 2.5]
        )

    def test_unknown_external_raises(self):
        m = Module("x")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        b = IRBuilder(fn.add_block("entry"))
        b.intrinsic("mystery_fn", irt.void, [])
        b.ret()
        with pytest.raises(InterpreterError, match="mystery_fn"):
            Interpreter(m).run("f", [])


class TestControlFlow:
    def test_axpy_kernel(self):
        m = build_axpy_module()
        x = np.arange(5, dtype=np.float32)
        y = np.ones(5, dtype=np.float32)
        out = run_kernel(m, "axpy", {"x": x, "y": y}, {"a": 3.0, "n": 5})
        assert np.allclose(out["y"], 3 * x + 1)

    def test_zero_trip_loop(self):
        m = build_axpy_module()
        y = np.ones(4, dtype=np.float32)
        out = run_kernel(
            m, "axpy", {"x": np.zeros(4, dtype=np.float32), "y": y.copy()},
            {"a": 1.0, "n": 0},
        )
        assert np.array_equal(out["y"], y)

    def test_step_budget_catches_infinite_loop(self):
        m = Module("inf")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        b.br(loop)
        with pytest.raises(InterpreterError, match="step budget"):
            Interpreter(m, max_steps=1000).run("f", [])

    def test_switch_dispatch(self):
        m = Module("sw")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        entry = fn.add_block("entry")
        b10 = fn.add_block("ten")
        other = fn.add_block("other")
        b = IRBuilder(entry)
        b.switch(fn.arguments[0], other, [(ConstantInt(irt.i32, 10), b10)])
        b.position_at_end(b10)
        b.ret(b.i32_(100))
        b.position_at_end(other)
        b.ret(b.i32_(-1))
        interp = Interpreter(m)
        assert interp.run("f", [10]) == 100
        assert interp.run("f", [11]) == -1

    def test_nested_call(self):
        m = Module("calls")
        callee = m.add_function("sq", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(callee.add_block("entry"))
        b.ret(b.mul(callee.arguments[0], callee.arguments[0]))
        caller = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(caller.add_block("entry"))
        b.ret(b.call(callee, [caller.arguments[0]]))
        assert Interpreter(m).run("f", [7]) == 49

    def test_missing_argument_message(self):
        m = build_axpy_module()
        with pytest.raises(InterpreterError, match="argument 'a'"):
            run_kernel(
                m, "axpy",
                {"x": np.zeros(2, np.float32), "y": np.zeros(2, np.float32)},
                {"n": 2},
            )


class TestDecodedSemantics:
    """Semantics the decoded form must keep from one-at-a-time evaluation."""

    def test_phis_copy_in_parallel(self):
        # Each back edge swaps %a and %b: (1, 2) -> (2, 1) -> (1, 2).
        m = Module("swap")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        entry, loop, exit_ = (fn.add_block(n) for n in ("entry", "loop", "exit"))
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        i, x, y = (b.phi(irt.i32, n) for n in ("i", "a", "b"))
        nxt = b.add(i, b.i32_(1), "next")
        b.cond_br(b.icmp("slt", nxt, b.i32_(3)), loop, exit_)
        for phi, start, back in ((i, b.i32_(0), nxt), (x, b.i32_(1), y), (y, b.i32_(2), x)):
            phi.add_incoming(start, entry)
            phi.add_incoming(back, loop)
        b.position_at_end(exit_)
        b.ret(b.add(b.mul(x, b.i32_(10)), y))
        assert Interpreter(m).run("f", []) == 12

    def test_select_reads_only_the_chosen_arm(self):
        # %x is defined only on the %then path; the select picks it only there.
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i1]), ["c"])
        entry, then, else_, join = (fn.add_block(n) for n in ("entry", "then", "else", "join"))
        b = IRBuilder(entry)
        b.cond_br(fn.arguments[0], then, else_)
        b.position_at_end(then)
        x = b.add(b.i32_(40), b.i32_(2), "x")
        b.br(join)
        b.position_at_end(else_)
        b.br(join)
        b.position_at_end(join)
        b.ret(b.select(fn.arguments[0], x, b.i32_(7)))
        interp = Interpreter(m)
        assert interp.run("f", [1]) == 42
        assert interp.run("f", [0]) == 7

    def test_use_before_its_definition_in_a_loop_block(self):
        # %early reads %late, defined further down the same block: undefined
        # on the first pass even though a later pass would find it set.
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        entry, loop = fn.add_block("entry"), fn.add_block("loop")
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        placeholder = b.i32_(0)
        early = b.add(placeholder, b.i32_(1), "early")
        late = b.add(early, b.i32_(1), "late")
        early.set_operand(0, late)
        b.br(loop)
        message, steps = _fault(m)
        assert message == "use of undefined value <BinaryOperator add %late>"
        assert steps == 2

    def test_a_new_interpreter_sees_module_edits(self):
        m = _one_block(lambda b, a: b.ret(b.add(a[0], b.i32_(1), "r")), [irt.i32], irt.i32)
        assert Interpreter(m).run("f", [1]) == 2
        add = m.get_function("f").blocks[0].instructions[0]
        add.set_operand(1, ConstantInt(irt.i32, 5))
        assert Interpreter(m).run("f", [1]) == 6

    def test_running_leaves_pickles_unchanged(self):
        import pickle

        m = build_axpy_module()
        before = pickle.dumps(m)
        run_kernel(
            m, "axpy",
            {"x": np.ones(4, np.float32), "y": np.ones(4, np.float32)},
            {"a": 2.0, "n": 4},
        )
        assert pickle.dumps(m) == before

    def test_interpreter_is_freed_by_reference_counting(self):
        # Decoded code must hold no reference cycles (block-to-block links,
        # a call closure back to its interpreter): it dies with the
        # Interpreter even with the cycle collector off.
        import gc
        import weakref

        m = Module("calls")
        callee = m.add_function("inc", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(callee.add_block("entry"))
        b.ret(b.add(callee.arguments[0], b.i32_(1)))
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["n"])
        entry, loop, exit_ = (fn.add_block(n) for n in ("entry", "loop", "exit"))
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        i = b.phi(irt.i32, "i")
        nxt = b.call(callee, [i])
        b.cond_br(b.icmp("slt", nxt, fn.arguments[0]), loop, exit_)
        i.add_incoming(b.i32_(0), entry)
        i.add_incoming(nxt, loop)
        b.position_at_end(exit_)
        b.ret(nxt)
        gc.disable()
        try:
            interp = Interpreter(m)
            assert interp.run("f", [5]) == 5
            alive = weakref.ref(interp)
            del interp
            assert alive() is None
        finally:
            gc.enable()


class TestGeneratedCode:
    """What compiling functions to Python source adds: inline blocks, split
    pointers, counted runs split at calls, and bounded source shapes."""

    def test_fault_in_an_inlined_block_rewinds_to_it(self):
        # %mid and %then each have one predecessor, so they run inline at
        # their incoming edge; the second store in %then is out of bounds.
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.void, [irt.ptr, irt.i1]), ["p", "c"])
        entry, mid, then, else_ = (fn.add_block(n) for n in ("entry", "mid", "then", "else"))
        p, c = fn.arguments
        b = IRBuilder(entry)
        b.br(mid)
        b.position_at_end(mid)
        b.cond_br(c, then, else_)
        b.position_at_end(then)
        b.store(b.i32_(7), b.gep(irt.i32, p, [b.i64_(1)]))
        b.store(b.i32_(8), b.gep(irt.i32, p, [b.i64_(9)]))
        b.ret()
        b.position_at_end(else_)
        b.ret()
        buf = MemoryBuffer(8, "cell")
        message, steps = _fault(m, [Pointer(buf), 1])
        assert message == "out-of-bounds access to cell: offset 36 size 4 in buffer of 8 bytes"
        assert steps == 1 + 1 + 4  # br, br, then the fourth of %then's five
        assert list(numpy_from_buffer(buf, np.int32, (2,))) == [0, 7]

    def test_budget_runs_out_after_a_call_in_the_same_block(self):
        m = Module("t")
        g = m.add_function("g", irt.function_type(irt.i32, []))
        b = IRBuilder(g.add_block("entry"))
        b.ret(b.add(b.i32_(1), b.i32_(2)))
        fn = m.add_function("f", irt.function_type(irt.void, [irt.ptr]), ["p"])
        b = IRBuilder(fn.add_block("entry"))
        b.call(g, [])
        for value in (1, 2, 3):
            b.store(b.i32_(value), fn.arguments[0])
        b.ret()
        # The call (1), @g's add and ret (2) and the first store (1) fit.
        buf = MemoryBuffer(4, "cell")
        message, steps = _fault(m, [Pointer(buf)], max_steps=4)
        assert message == "step budget exceeded (4); possible infinite loop in @f"
        assert steps == 5
        assert numpy_from_buffer(buf, np.int32, (1,))[0] == 1

    @pytest.mark.parametrize(
        "access,message",
        [("gep", "gep through non-pointer 7"),
         ("load", "load through non-pointer 7"),
         ("store", "store through non-pointer 7")],
    )
    def test_non_pointer_argument_faults_only_where_dereferenced(self, access, message):
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.ptr, irt.i1]), ["p", "c"])
        entry, use, skip = (fn.add_block(n) for n in ("entry", "use", "skip"))
        p, c = fn.arguments
        b = IRBuilder(entry)
        b.cond_br(c, use, skip)
        b.position_at_end(use)
        if access == "gep":
            b.ret(b.load(irt.i32, b.gep(irt.i32, p, [b.i64_(1)])))
        elif access == "load":
            b.ret(b.load(irt.i32, p))
        else:
            b.store(b.i32_(1), p)
            b.ret(b.i32_(0))
        b.position_at_end(skip)
        b.ret(b.i32_(5))
        assert Interpreter(m).run("f", [7, 0]) == 5
        assert _fault(m, [7, 1]) == (message, 2)

    def test_two_geps_to_one_element_compare_equal(self):
        def build(b, a):
            first = b.gep(irt.i32, a[0], [b.i64_(1)])
            same = b.gep(irt.i32, a[0], [b.i64_(1)])
            other = b.gep(irt.i32, a[0], [b.i64_(2)])
            eq = b.zext(b.icmp("eq", first, same), irt.i32)
            ne = b.zext(b.icmp("ne", first, other), irt.i32)
            b.ret(b.add(b.mul(eq, b.i32_(10)), ne))

        m = _one_block(build, [irt.ptr], irt.i32)
        assert Interpreter(m).run("f", [MemoryBuffer(16)]) == 11

    def test_escaped_gep_results_address_the_same_bytes(self):
        # Element k of %p is written through a GEP result that was passed to
        # a defined function (k=1), stored through and reloaded (k=2),
        # carried through a phi (k=3 or 4) or picked by a select (k=0 or 5).
        m = Module("t")
        put = m.add_function("put", irt.function_type(irt.void, [irt.ptr, irt.i32]), ["q", "v"])
        b = IRBuilder(put.add_block("entry"))
        b.store(put.arguments[1], put.arguments[0])
        b.ret()
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.ptr, irt.i1]), ["p", "c"])
        p, c = fn.arguments
        entry, left, right, join = (fn.add_block(n) for n in ("entry", "left", "right", "join"))
        b = IRBuilder(entry)
        at = [b.gep(irt.i32, p, [b.i64_(k)]) for k in range(6)]
        b.call(put, [at[1], b.i32_(11)])
        b.store(b.i32_(22), at[2])
        again = b.load(irt.i32, b.gep(irt.i32, p, [b.i64_(2)]))
        b.store(b.i32_(55), b.select(c, at[0], at[5]))
        b.cond_br(c, left, right)
        for block in (left, right):
            b.position_at_end(block)
            b.br(join)
        b.position_at_end(join)
        carried = b.phi(irt.ptr, "carried")
        carried.add_incoming(at[3], left)
        carried.add_incoming(at[4], right)
        b.store(b.i32_(33), carried)
        b.ret(b.add(again, b.load(irt.i32, at[1])))
        for flag, cells in ((1, [55, 11, 22, 33, 0, 0]), (0, [0, 11, 22, 0, 33, 55])):
            buf = MemoryBuffer(24, "cells")
            assert Interpreter(m).run("f", [Pointer(buf), flag]) == 33
            assert list(numpy_from_buffer(buf, np.int32, (6,))) == cells

    @staticmethod
    def _factorial():
        m = Module("t")
        fn = m.add_function("fact", irt.function_type(irt.i32, [irt.i32]), ["n"])
        entry, base, rec = (fn.add_block(n) for n in ("entry", "base", "rec"))
        (n,) = fn.arguments
        b = IRBuilder(entry)
        b.cond_br(b.icmp("sle", n, b.i32_(1)), base, rec)
        b.position_at_end(base)
        b.ret(b.i32_(1))
        b.position_at_end(rec)
        b.ret(b.mul(n, b.call(fn, [b.sub(n, b.i32_(1))])))
        return m

    def test_recursive_function_counts_every_step(self):
        # One at a time: a recursive call runs icmp, br, sub, call, mul and
        # ret (6), the base call icmp, br and ret (3).
        interp = Interpreter(self._factorial())
        assert interp.run("fact", [5]) == 120
        assert interp.steps == 4 * 6 + 3
        interp = Interpreter(self._factorial(), max_steps=14)
        with pytest.raises(InterpreterError, match=r"\(14\); possible infinite loop in @fact"):
            interp.run("fact", [5])
        assert interp.steps == 15  # the third call's sub did not run

    def test_five_thousand_block_function_compiles(self):
        # Each block is branched to twice, so each gets a dispatch arm.
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i1]), ["c"])
        b = IRBuilder(fn.add_block("entry"))
        blocks = [fn.add_block(f"b{k}") for k in range(5000)]
        done = fn.add_block("done")
        b.br(blocks[0])
        total = b.i32_(0)
        for k, block in enumerate(blocks):
            b.position_at_end(block)
            total = b.add(total, b.i32_(1))
            after = blocks[k + 1] if k + 1 < len(blocks) else done
            b.cond_br(fn.arguments[0], after, after)
        b.position_at_end(done)
        b.ret(total)
        interp = Interpreter(m)
        assert interp.run("f", [1]) == 5000
        assert interp.steps == 1 + 2 * 5000 + 1

    def test_deep_chain_of_single_predecessor_blocks_compiles(self):
        # Each link has one predecessor, so each would nest inside the last.
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        links = [fn.add_block(f"l{k}") for k in range(150)]
        bail, done = fn.add_block("bail"), fn.add_block("done")
        b.br(links[0])
        value = fn.arguments[0]
        for k, link in enumerate(links):
            b.position_at_end(link)
            value = b.add(value, b.i32_(1))
            after = links[k + 1] if k + 1 < len(links) else done
            b.cond_br(b.icmp("slt", value, b.i32_(1000)), after, bail)
        b.position_at_end(bail)
        b.ret(b.i32_(-1))
        b.position_at_end(done)
        b.ret(value)
        assert Interpreter(m).run("f", [0]) == 150
        assert Interpreter(m).run("f", [900]) == -1

    def test_deep_chain_of_wide_switches_compiles(self):
        # Each link's last case is its successor's one incoming edge, and
        # that arm of a 1,000-case switch nests several levels deep.
        m = Module("t")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        links = [fn.add_block(f"l{k}") for k in range(40)]
        bail, done = fn.add_block("bail"), fn.add_block("done")
        b.br(links[0])
        for k, link in enumerate(links):
            b.position_at_end(link)
            after = links[k + 1] if k + 1 < len(links) else done
            cases = [(ConstantInt(irt.i32, c), bail) for c in range(999)]
            b.switch(fn.arguments[0], bail, cases + [(ConstantInt(irt.i32, 999), after)])
        b.position_at_end(bail)
        b.ret(b.i32_(-1))
        b.position_at_end(done)
        b.ret(b.i32_(40))
        assert Interpreter(m).run("f", [999]) == 40
        assert Interpreter(m).run("f", [5]) == -1
