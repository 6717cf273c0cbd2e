"""Affine expression/map algebra, with property-based evaluation checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mlir import FunctionType, ModuleOp, OpBuilder, index, memref
from repro.mlir.affine_expr import (
    AffineConstant,
    AffineDim,
    AffineMap,
    AffineSymbol,
    c,
    d,
    s,
)
from repro.mlir.dialects import affine, func

from ..conftest import run_lowered

DIMS = st.integers(-50, 50)
COEFFICIENTS = st.integers(-10, 10)
DIVISORS = st.integers(1, 20)


def affine_exprs(num_dims: int):
    """Affine expressions over ``d0..d{num_dims-1}``: sums and differences,
    products with a constant, and ``floordiv``/``mod`` by a positive one."""
    leaves = st.one_of(st.integers(0, num_dims - 1).map(d), COEFFICIENTS.map(c))

    def extend(inner):
        return st.one_of(
            st.builds(lambda l, r: l + r, inner, inner),
            st.builds(lambda l, r: l - r, inner, inner),
            st.builds(lambda e, k: e * k, inner, COEFFICIENTS),
            st.builds(lambda e, k: e // k, inner, DIVISORS),
            st.builds(lambda e, k: e % k, inner, DIVISORS),
        )

    return st.recursive(leaves, extend, max_leaves=6)


class TestExprConstruction:
    def test_operator_sugar(self):
        expr = d(0) * 4 + d(1) - 2
        assert expr.evaluate([3, 5]) == 3 * 4 + 5 - 2

    def test_rsub_rmul(self):
        assert (10 - d(0)).evaluate([3]) == 7
        assert (3 * d(0)).evaluate([4]) == 12

    def test_floordiv_mod(self):
        assert (d(0) // 3).evaluate([10]) == 3
        assert (d(0) % 3).evaluate([10]) == 1

    def test_symbols(self):
        expr = d(0) + s(0)
        assert expr.evaluate([2], [30]) == 32

    def test_max_dim_and_sym(self):
        expr = d(2) + s(1) * 3
        assert expr.max_dim() == 3
        assert expr.max_sym() == 2

    def test_equality_is_structural(self):
        assert d(0) + 1 == d(0) + 1
        assert d(0) + 1 != d(0) + 2


class TestAffineMap:
    def test_constant_map(self):
        m = AffineMap.constant(7)
        assert m.is_single_constant()
        assert m.single_constant() == 7
        assert m.evaluate([], []) == (7,)

    def test_identity_map(self):
        m = AffineMap.identity(3)
        assert m.evaluate([4, 5, 6]) == (4, 5, 6)

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            AffineMap(1, 0, [d(1)])  # d1 out of range
        with pytest.raises(ValueError):
            AffineMap.identity(2).evaluate([1])

    def test_multi_result(self):
        m = AffineMap(1, 0, [d(0), d(0) + 1])
        assert m.evaluate([5]) == (5, 6)

    def test_string_form(self):
        m = AffineMap(2, 1, [d(0) + s(0)])
        text = str(m)
        assert "d0" in text and "s0" in text

    @given(DIMS, DIMS, COEFFICIENTS, COEFFICIENTS, COEFFICIENTS)
    @settings(max_examples=50, deadline=None)
    def test_affine_combination_matches_python(self, x, y, a, b, k):
        expr = d(0) * a + d(1) * b + k
        m = AffineMap(2, 0, [expr])
        assert m.evaluate([x, y]) == (a * x + b * y + k,)

    @given(st.integers(0, 1000), DIVISORS)
    @settings(max_examples=30, deadline=None)
    def test_floordiv_mod_identity(self, x, q):
        div = (d(0) // q).evaluate([x])
        mod = (d(0) % q).evaluate([x])
        assert div * q + mod == x
        assert 0 <= mod < q


def apply_lowered(amap: AffineMap, dims) -> int:
    """``affine.apply`` of ``amap`` to ``dims``, lowered and run."""
    names = [f"d{k}" for k in range(amap.num_dims)]
    mod = ModuleOp("apply")
    fn = func.func("f", FunctionType([index] * amap.num_dims + [memref(1, index)], []),
                   names + ["out"])
    mod.append(fn.op)
    b = OpBuilder(fn.entry)
    result = b.insert(affine.apply(amap, fn.arguments[:-1])).result
    b.insert(affine.store(result, fn.arguments[-1], [b.const_index(0)]))
    b.insert(func.return_())
    out = run_lowered(mod, "f", {"out": np.zeros(1, np.int64)}, dict(zip(names, dims)))
    return int(out["out"][0])


class TestLoweredApply:
    """The lowering's ``floordiv`` rounds toward -inf and its ``mod`` is never
    negative, as ``AffineMap.evaluate`` (the reference) says."""

    @given(affine_exprs(2), DIMS, DIMS)
    @settings(max_examples=60, deadline=None)
    def test_lowered_apply_matches_evaluate(self, expr, x, y):
        amap = AffineMap(2, 0, [expr])
        assert apply_lowered(amap, [x, y]) == amap.evaluate([x, y])[0]
