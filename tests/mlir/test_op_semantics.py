"""What each arith and math op computes, stated against NumPy.

Every case lowers a one-op elementwise kernel (``lowering_pipeline`` then
``convert_to_llvm``) and runs it in the IR interpreter, the one executor
behind every equivalence verdict; its stored results must equal NumPy's.
Every case also goes through the HLS C++ flow: codegen, the C frontend,
then the same interpreter.
The lanes mix signs and carry zeros, infinities and NaN where the op is
defined on them, so rounding direction, unsigned order and IEEE special
values are all pinned.
"""

import numpy as np
import pytest

from repro.hlscpp import compile_hls_cpp, generate_hls_cpp
from repro.ir import run_kernel
from repro.mlir import FunctionType, ModuleOp, OpBuilder, f32, f64, i1, i32, index, memref
from repro.mlir.affine_expr import AffineMap, d
from repro.mlir.core import IntType
from repro.mlir.dialects import affine, arith, func, math
from repro.mlir.dialects.arith import CMPF_PREDICATES, CMPI_PREDICATES

from ..conftest import run_lowered

i16 = IntType(16)
_ELEMENT_TYPES = {
    np.dtype(np.bool_): i1,
    np.dtype(np.int16): i16,
    np.dtype(np.int32): i32,
    np.dtype(np.int64): index,
    np.dtype(np.float32): f32,
    np.dtype(np.float64): f64,
}


def op_kernel(build, result_dtype, *operands):
    """The kernel ``f``: ``out[i] = build(x0[i], x1[i], ...)`` over the
    lanes, and its argument arrays."""
    n = len(operands[0])
    names = [f"x{k}" for k in range(len(operands))]
    types = [memref(n, _ELEMENT_TYPES[a.dtype]) for a in operands]
    types.append(memref(n, _ELEMENT_TYPES[np.dtype(result_dtype)]))
    mod = ModuleOp("op")
    fn = func.func("f", FunctionType(types, []), names + ["out"])
    mod.append(fn.op)
    b = OpBuilder(fn.entry)
    loop = b.affine_for(0, n)
    with b.inside(loop):
        i = loop.induction_variable
        values = [b.insert(affine.load(arg, [i])).result for arg in fn.arguments[:-1]]
        b.insert(affine.store(b.insert(build(*values)).result, fn.arguments[-1], [i]))
    b.insert(func.return_())
    arrays = dict(zip(names, operands), out=np.zeros(n, result_dtype))
    return mod, arrays


def run_op(build, result_dtype, *operands):
    """:func:`op_kernel` lowered and run."""
    mod, arrays = op_kernel(build, result_dtype, *operands)
    return run_lowered(mod, "f", arrays)["out"]


def run_cpp(build, result_dtype, *operands):
    """:func:`op_kernel` through HLS C++ codegen and the C frontend, and run."""
    mod, arrays = op_kernel(build, result_dtype, *operands)
    return run_kernel(compile_hls_cpp(generate_hls_cpp(mod)), "f", arrays)["out"]


# -- lanes: fixed edge values, then seeded random ones -------------------------
_rng = np.random.default_rng(21)
_BIG = 2**31 - 1


def _lanes(dtype, edges, random):
    return np.concatenate([np.array(edges, dtype), random.astype(dtype)])


# Dividends, divisors (never 0) and shift amounts; A and B agree on three lanes.
A = _lanes(np.int32, [0, 1, -1, 7, -7, 8, -8, _BIG, -_BIG], _rng.integers(-1000, 1000, 55))
B = _lanes(np.int32, [1, 1, -1, 2, -2, 8, -3, 50, -1],
           _rng.choice(np.r_[-50:0, 1:51], 55))
S = _lanes(np.int32, [0, 1, 31], _rng.integers(0, 32, 61))
# Floats: F and G agree on three lanes, each has NaN where the other has not,
# and G has signed zeros under nonzero and NaN lanes of F.
F = _lanes(np.float32, [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, np.inf, -np.inf, np.nan, 3.0,
                        np.nan, 1.0, -4.0, np.nan], _rng.normal(0, 10, 50))
G = _lanes(np.float32, [0.0, 0.0, 1.0, 2.0, np.nan, -2.5, np.inf, 1.0, 3.0, np.nan,
                        np.nan, -0.0, -0.0, 0.0], _rng.normal(0, 10, 50))
H = _lanes(np.float32, [], _rng.normal(0, 10, 64))
FINITE = _lanes(np.float32, [0.0, -0.5, 0.5, -1.99, 1.99], _rng.uniform(-1e6, 1e6, 59))
# Doubles from below float32's subnormals to beyond its range.
DOUBLES = _lanes(np.float64, [0.1, -1e300, 1e300, 1e-50, np.nan, -np.inf],
                 _rng.normal(0, 1, 58) * 10.0 ** _rng.integers(-50, 50, 58))
NO_NAN = ~(np.isnan(F) | np.isnan(G))
COND = _rng.random(64) < 0.5

_ORDERED = {
    "eq": np.equal, "ne": np.not_equal,
    "lt": np.less, "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal,
}


def _cmpi(pred, a, b):
    if pred[0] == "u":
        a, b = a.view(np.uint32), b.view(np.uint32)
    return _ORDERED[pred if pred in ("eq", "ne") else pred[1:]](a, b)


def _cmpf(pred, a, b):
    unordered = np.isnan(a) | np.isnan(b)
    if pred in ("ord", "uno"):
        return unordered if pred == "uno" else ~unordered
    ordered = _ORDERED[pred[1:]](a, b) & ~unordered
    return ordered | unordered if pred[0] == "u" else ordered


def _f64(fn, *args):
    """``fn`` on the float32 lanes in double, rounded to float32 once."""
    return fn(*(a.astype(np.float64) for a in args)).astype(np.float32)


def _cases():
    """(id, build, operands, NumPy result, ulps allowed) for every op."""
    int_binary = {
        "addi": (arith.addi, np.add),
        "subi": (arith.subi, np.subtract),
        "muli": (arith.muli, np.multiply),
        "divsi": (arith.divsi, lambda a, b: (a - np.fmod(a, b)) // b),
        "remsi": (arith.remsi, np.fmod),
        "floordivsi": (arith.floordivsi, np.floor_divide),
        "ceildivsi": (arith.ceildivsi, lambda a, b: -np.floor_divide(-a, b)),
        "andi": (arith.andi, np.bitwise_and),
        "ori": (arith.ori, np.bitwise_or),
        "xori": (arith.xori, np.bitwise_xor),
        "maxsi": (arith.maxsi, np.maximum),
        "minsi": (arith.minsi, np.minimum),
    }
    for name, (op, ref) in int_binary.items():
        yield name, op, (A, B), ref(A, B), 0
    yield "shli", arith.shli, (A, S), np.left_shift(A, S), 0
    yield "shrsi", arith.shrsi, (A, S), np.right_shift(A, S), 0
    float_binary = {
        "addf": (arith.addf, np.add),
        "subf": (arith.subf, np.subtract),
        "mulf": (arith.mulf, np.multiply),
        "divf": (arith.divf, np.divide),
    }
    for name, (op, ref) in float_binary.items():
        yield name, op, (F, G), ref(F, G), 0
    # NaN lanes left out: maximumf/minimumf lower to llvm.maxnum/minnum, and
    # the interpreter's max/min keep whichever operand comes first.
    for name, op, ref in (("maximumf", arith.maximumf, np.maximum),
                          ("minimumf", arith.minimumf, np.minimum)):
        yield name, op, (F[NO_NAN], G[NO_NAN]), ref(F[NO_NAN], G[NO_NAN]), 0
    yield "negf", arith.negf, (F,), np.negative(F), 0
    for pred in CMPI_PREDICATES:
        yield f"cmpi-{pred}", lambda a, b, p=pred: arith.cmpi(p, a, b), (A, B), _cmpi(pred, A, B), 0
    for pred in CMPF_PREDICATES:
        yield f"cmpf-{pred}", lambda a, b, p=pred: arith.cmpf(p, a, b), (F, G), _cmpf(pred, F, G), 0
    yield "select", arith.select, (COND, F, G), np.where(COND, F, G), 0
    wide = A.astype(np.int64) * 3**20
    casts = [
        ("index_cast-ext", index, A, A.astype(np.int64)),
        ("index_cast-trunc", i32, wide, wide.astype(np.int32)),
        ("extsi", i32, A.astype(np.int16), A.astype(np.int16).astype(np.int32)),
        ("trunci", i16, A, A.astype(np.int16)),
        ("sitofp", f32, A, A.astype(np.float32)),
        ("fptosi", i32, FINITE, FINITE.astype(np.int32)),
        ("extf", f64, F, F.astype(np.float64)),
        ("truncf", f32, DOUBLES, DOUBLES.astype(np.float32)),
    ]
    ctors = {"index_cast": arith.index_cast, "extsi": arith.extsi, "trunci": arith.trunci,
             "sitofp": arith.sitofp, "fptosi": arith.fptosi, "extf": arith.extf,
             "truncf": arith.truncf}
    for name, to, source, want in casts:
        ctor = ctors[name.split("-")[0]]
        yield name, lambda v, c=ctor, t=to: c(v, t), (source,), want, 0
    # Correctly rounded ops are exact; libm's transcendental ones may be 1 ulp off.
    math_unary = {
        "sqrt": (math.sqrt, np.sqrt, 0),
        "absf": (math.absf, np.abs, 0),
        "exp": (math.exp, np.exp, 1),
        "log": (math.log, np.log, 1),
        "sin": (math.sin, np.sin, 1),
        "cos": (math.cos, np.cos, 1),
    }
    for name, (op, ref, ulps) in math_unary.items():
        yield f"math.{name}", op, (F,), _f64(ref, F), ulps
    yield "math.powf", math.powf, (F, G), _f64(np.power, F, G), 1
    yield "math.fma", math.fma, (F, G, H), _f64(lambda a, b, c: a * b + c, F, G, H), 0


with np.errstate(all="ignore"):
    CASES = [pytest.param(build, operands, want, ulps, id=name)
             for name, build, operands, want, ulps in _cases()]


def assert_matches(got, want, ulps):
    if ulps:
        np.testing.assert_array_max_ulp(got, want, maxulp=ulps)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("build,operands,want,ulps", CASES)
def test_op_matches_numpy(build, operands, want, ulps):
    assert_matches(run_op(build, want.dtype, *operands), want, ulps)


@pytest.mark.parametrize(
    "build,operands,want,ulps", [c for c in CASES if not c.id.startswith("cmpf-")]
)
def test_op_through_hls_cpp(build, operands, want, ulps):
    """Every case but the float compares (the next test) through the C++
    flow: C's truncating ``/``, 32-bit ``int`` and twice-rounded ``a * b + c``
    must not leak into floordivsi/ceildivsi, ``index`` memrefs or fma."""
    assert_matches(run_cpp(build, want.dtype, *operands), want, ulps)


@pytest.mark.parametrize("pred", CMPF_PREDICATES)
def test_cmpf_through_hls_cpp(pred):
    """The same compares through HLS C++ codegen and the C frontend: C's
    ordered operators must not leak into the unordered predicates."""
    got = run_cpp(lambda a, b: arith.cmpf(pred, a, b), np.bool_, F, G)
    np.testing.assert_array_equal(got, _cmpf(pred, F, G))


def test_f64_fma_flows_agree():
    """A double fma computes the same through the C++ flow as lowered:
    codegen prints ``fma``, not the float ``fmaf``."""
    rng = np.random.default_rng(5)
    a, b, c = (rng.normal(0, 1, 64) * 10.0 ** rng.integers(-30, 30, 64) for _ in range(3))
    want = run_op(math.fma, np.float64, a, b, c)
    np.testing.assert_array_equal(run_cpp(math.fma, np.float64, a, b, c), want)


def test_periodic_read_wraps_with_affine_mod():
    """``out[i] = x[(i - 1) mod 8]`` is ``np.roll(x, 1)``: ``mod`` of a
    negative stays in ``[0, 8)``."""
    mod = ModuleOp("roll")
    fn = func.func("roll", FunctionType([memref(8, f32), memref(8, f32)], []), ["x", "out"])
    mod.append(fn.op)
    b = OpBuilder(fn.entry)
    loop = b.affine_for(0, 8)
    with b.inside(loop):
        i = loop.induction_variable
        read = AffineMap(1, 0, [(d(0) - 1) % 8])
        value = b.insert(affine.load(fn.arguments[0], [i], read)).result
        b.insert(affine.store(value, fn.arguments[1], [i]))
    b.insert(func.return_())
    x = np.arange(8, dtype=np.float32)
    out = run_lowered(mod, "roll", {"x": x, "out": np.zeros(8, np.float32)})
    assert np.array_equal(out["out"], np.roll(x, 1))
