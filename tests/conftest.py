"""Shared test fixtures and IR-building helpers."""

from __future__ import annotations

import functools

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


def adapted_mini_module(kernel: str, config):
    """The MINI ``kernel`` under ``config`` (an ``OptimizationConfig``),
    lowered, cleaned up and adapted: what the HLS backends synthesize."""
    from repro.adaptor import HLSAdaptor
    from repro.ir.transforms import standard_cleanup_pipeline
    from repro.mlir.passes import convert_to_llvm, lowering_pipeline
    from repro.workloads import build_kernel
    from repro.workloads.suite import SUITE_SIZES

    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    config.apply(spec)
    lowering_pipeline().run(spec.module)
    module = convert_to_llvm(spec.module)
    standard_cleanup_pipeline().run(module)
    HLSAdaptor(lint="off").run(module)
    return module


@functools.lru_cache(maxsize=None)
def mini_innermost_bodies(config: str):
    """``(kernel, dfg, carried)`` for every single-block innermost loop
    body of the 15 MINI kernels, adapted under the named ``config``, as
    the HLS engine builds them."""
    from repro.hls.cdfg import build_block_dfg, carried_dependences
    from repro.hls.memory import MemoryModel
    from repro.hls.operators import DEFAULT_LIBRARY
    from repro.ir.analysis import LoopInfo
    from repro.service.service import resolve_config
    from repro.workloads.suite import SUITE_SIZES

    bodies = []
    for kernel in sorted(SUITE_SIZES["MINI"]):
        module = adapted_mini_module(kernel, resolve_config(config))
        for fn in module.defined_functions():
            memory = MemoryModel(fn)
            for loop in LoopInfo(fn).innermost_loops():
                blocks = [b for b in loop.blocks if b is not loop.header]
                if len(blocks) != 1:
                    continue
                dfg = build_block_dfg(blocks[0], DEFAULT_LIBRARY, memory)
                counted = loop.counted_form()
                carried = carried_dependences(
                    dfg, counted.indvar if counted else None, loop
                )
                bodies.append((kernel, dfg, carried))
    return tuple(bodies)


def random_sites(seed: int):
    """A seeded loop body of up to 12 nodes of latency 0-3 with random
    forward edges, over one to three buffers of 1-4 banks; each node has
    no memory site, a bank-known one or a bank-unknown one."""
    import random

    from repro.hls.cdfg import BlockDFG, DFGNode
    from repro.hls.memory import AccessSite, BufferInfo

    rng = random.Random(seed)
    buffers = [
        BufferInfo(f"b{k}", depth=64, element_bits=32, dims=(64,),
                   banks=rng.randint(1, 4))
        for k in range(rng.randint(1, 3))
    ]
    nodes = []
    for i in range(rng.randint(1, 12)):
        node = DFGNode(inst=None, index=i, latency=rng.randint(0, 3), spec_key="op")
        if rng.random() < 0.9:
            buffer = rng.choice(buffers)
            bank = rng.randrange(buffer.banks) if rng.random() < 0.5 else None
            node.site = AccessSite(None, buffer, (), bank)
        nodes.append(node)
    dfg = BlockDFG(None, nodes)
    for v, node in enumerate(nodes):
        for pred in nodes[:v]:
            if rng.random() < 0.2:
                dfg.add_edge(pred, node, pred.latency)
    return dfg
