"""Function-owned analysis caches and the verifier's clean token.

CFG orders and dominator trees are cached on each ``Function``
(``Function.analyses``), stamped with ``Function.version``.  These tests
pin what makes that safe: after any pass a cached result equals a fresh
computation, the cache never keeps the IR it describes alive, and it never
rides along in a pickle.  The whole-module clean token that lets
``verify_module(assume_clean=True)`` skip work must likewise die on the
first mutation.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from repro.adaptor import ADAPTOR_PASS_ORDER, PASS_FACTORY
from repro.flows import run_adaptor_flow
from repro.ir.analysis.cfg import _compute_postorder, postorder, reachable_blocks
from repro.ir.analysis.dominators import DominatorTree, dominator_tree
from repro.ir.transforms import PassManager, standard_cleanup_pipeline
from repro.ir.verifier import (
    VerificationError,
    is_recorded_clean,
    record_clean,
    verify_module,
)
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.testing import RandomModuleGenerator
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

from ..conftest import build_axpy_module

KERNELS = sorted(SUITE_SIZES["MINI"])


def _lowered(kernel: str):
    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    lowering_pipeline().run(spec.module)
    return convert_to_llvm(spec.module)


def _assert_coherent(module, after: str) -> None:
    """Cached analyses agree, by block identity, with fresh ones."""
    for fn in module.defined_functions():
        where = f"@{fn.name} after {after}"
        fresh = _compute_postorder(fn)
        cached = postorder(fn)
        assert len(cached) == len(fresh), f"{where}: stale postorder"
        assert all(a is b for a, b in zip(cached, fresh)), (
            f"{where}: stale postorder"
        )
        assert reachable_blocks(fn) == {id(b) for b in fresh}, (
            f"{where}: stale reachable set"
        )
        cached_idom = dominator_tree(fn).idom
        fresh_idom = DominatorTree(fn).idom
        assert cached_idom.keys() == fresh_idom.keys(), f"{where}: stale idom"
        assert all(cached_idom[k] is fresh_idom[k] for k in fresh_idom), (
            f"{where}: stale idom"
        )


def _run_one_at_a_time(module, passes) -> None:
    # Each check fills the cache, so the next pass must invalidate it.
    _assert_coherent(module, "input")
    for pass_ in passes:
        PassManager().add(pass_).run(module)
        _assert_coherent(module, pass_.name)


@pytest.mark.parametrize("kernel", KERNELS)
def test_cache_coherent_through_cleanup_and_adaptor(kernel):
    passes = standard_cleanup_pipeline().passes + [
        PASS_FACTORY[name]() for name in ADAPTOR_PASS_ORDER
    ]
    _run_one_at_a_time(_lowered(kernel), passes)


@pytest.mark.parametrize("seed", range(20))
def test_cache_coherent_through_cleanup_on_random_modules(seed):
    module = RandomModuleGenerator(seed).generate()
    _run_one_at_a_time(module, standard_cleanup_pipeline().passes)


def test_compile_releases_its_module():
    """A cached analysis points back at its function (blocks' ``parent``,
    the tree's ``function``), so it must not outlive the function."""
    spec = build_kernel("gemm", **SUITE_SIZES["MINI"]["gemm"])
    result = run_adaptor_flow(spec)
    refs = [weakref.ref(result.ir_module)] + [
        weakref.ref(fn) for fn in result.ir_module.functions
    ]
    del result
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_pickled_or_copied_function_starts_with_an_empty_cache():
    module = _lowered("gemm")
    for fn in module.functions:
        fn.analyses = None
    cold = pickle.dumps(module)
    for fn in module.defined_functions():
        dominator_tree(fn)
        assert fn.analyses is not None
    assert pickle.dumps(module) == cold, "the analysis cache was pickled"
    for clone in (pickle.loads(cold), copy.deepcopy(module)):
        assert [fn.analyses for fn in clone.functions] == [None] * len(
            clone.functions
        )
        _assert_coherent(clone, "a round trip")


def test_mutation_invalidates_the_clean_token():
    module = build_axpy_module()
    verify_module(module)
    record_clean(module)
    assert is_recorded_clean(module)
    fn = module.get_function("axpy")
    nxt = next(i for i in fn.instructions() if i.name == "next")
    nxt.set_operand(0, nxt)  # %next = add %next, 1: use before def
    assert not is_recorded_clean(module)
    with pytest.raises(VerificationError):
        verify_module(module, assume_clean=True)
