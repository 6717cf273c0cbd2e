"""Shared test fixtures and IR-building helpers."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate golden-IR snapshot files instead of diffing them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


def pytest_collection_modifyitems(config, items):
    """Tier wiring: everything not marked ``slow`` is tier-1.

    The default ``addopts = "-m 'not slow'"`` (pyproject.toml) then makes
    ``python -m pytest -x -q`` the fast tier-1 gate, while CI runs the
    slow tier with ``-m slow`` in its own job.
    """
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.tier1)

from repro.ir import IRBuilder, Module
from repro.ir import types as irt


def build_axpy_module(name: str = "axpy") -> Module:
    """y[i] = a*x[i] + y[i] over n elements — the canonical counted loop."""
    m = Module(name)
    fn = m.add_function(
        "axpy",
        irt.function_type(irt.void, [irt.ptr, irt.ptr, irt.f32, irt.i32]),
        ["x", "y", "a", "n"],
    )
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    iv = b.phi(irt.i32, "i")
    cmp = b.icmp("slt", iv, fn.arguments[3], "cmp")
    b.cond_br(cmp, body, exit_)
    b.position_at_end(body)
    idx = b.sext(iv, irt.i64, "idx")
    px = b.gep(irt.f32, fn.arguments[0], [idx], "px")
    py = b.gep(irt.f32, fn.arguments[1], [idx], "py")
    xv = b.load(irt.f32, px, "xv", align=4)
    yv = b.load(irt.f32, py, "yv", align=4)
    s = b.fadd(b.fmul(fn.arguments[2], xv, "prod"), yv, "sum")
    b.store(s, py, align=4)
    nxt = b.add(iv, b.i32_(1), "next", nsw=True)
    b.br(loop)
    iv.add_incoming(b.i32_(0), entry)
    iv.add_incoming(nxt, body)
    b.position_at_end(exit_)
    b.ret()
    return m


@pytest.fixture
def axpy_module() -> Module:
    return build_axpy_module()


def build_gemm_spec(n: int = 4):
    """A small gemm KernelSpec (fresh module each call)."""
    from repro.workloads import build_kernel

    return build_kernel("gemm", NI=n, NJ=n, NK=n)


@pytest.fixture
def gemm_spec():
    return build_gemm_spec()


def lowered_gemm_ir(n: int = 4, pipeline: bool = False):
    """gemm lowered to modern LLVM IR (pre-adaptor)."""
    from repro.mlir.passes import convert_to_llvm, lowering_pipeline
    from repro.mlir.passes.loop_pipeline import set_loop_directives

    spec = build_gemm_spec(n)
    if pipeline:
        loops = [op for op in spec.fn.op.walk() if op.name == "affine.for"]
        set_loop_directives(loops[-1], pipeline=True, ii=1)
    lowering_pipeline().run(spec.module)
    return spec, convert_to_llvm(spec.module)


def lower_clone(module):
    """A clone of the mini-MLIR ``module`` lowered to modern LLVM IR.

    ``lowering_pipeline()`` then ``convert_to_llvm``, with no IR cleanup;
    ``module`` itself is left as it was, so a test can run the same
    kernel before and after an MLIR pass.
    """
    from repro.mlir import ModuleOp
    from repro.mlir.passes import convert_to_llvm, lowering_pipeline

    clone = ModuleOp(module.name)
    clone.op = module.op.clone()
    lowering_pipeline().run(clone)
    return convert_to_llvm(clone)


def run_lowered(module, name, arrays, scalars=None):
    """``run_kernel`` on :func:`lower_clone` of ``module``: the arrays'
    copies, keyed by argument name, after kernel ``name`` ran."""
    from repro.ir import run_kernel

    return run_kernel(lower_clone(module), name, arrays, scalars)


def rand_f32(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) * 2 - 1).astype(np.float32)
