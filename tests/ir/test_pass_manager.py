"""The pass manager's one runner: pass spans, blame and rollback.

Passes run in order.  An unguarded manager verifies the whole module once,
after its last pass; a guarded one snapshots before and verifies after
every pass, so a failure is blamed on, and rolled back to before, the pass
that caused it.  Guarded and unguarded runs of all 15 MINI kernels are
compared in ``tests/flows/test_substrate_equivalence.py``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.diagnostics.errors import PassExecutionError, PassVerificationError
from repro.diagnostics.guard import PassGuard
from repro.ir.transforms import standard_cleanup_pipeline
from repro.observability import Tracer, use_tracer
from repro.testing.fault_injection import FaultInjected, FaultyPass
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

KERNELS = ("gemm", "atax", "jacobi_2d")


def _cleanup_input(kernel: str) -> bytes:
    """The module the cleanup pipeline normally ingests, as pickle bytes
    so each run starts from a bit-identical private copy."""
    from repro.mlir.passes import convert_to_llvm, lowering_pipeline

    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    lowering_pipeline().run(spec.module)
    module = convert_to_llvm(spec.module)
    return pickle.dumps(module)


@pytest.mark.parametrize("kernel", KERNELS)
def test_unguarded_pass_spans_do_not_overlap(kernel):
    """Pass spans read as a monotonic, non-overlapping timeline for trace
    export."""
    module = pickle.loads(_cleanup_input(kernel))
    tracer = Tracer()
    with use_tracer(tracer):
        standard_cleanup_pipeline().run(module)
    spans = tracer.by_category("pass")
    assert spans
    for prev, cur in zip(spans, spans[1:]):
        assert cur.start >= prev.start + prev.duration - 1e-9, (
            f"{kernel}: span {cur.name!r} overlaps {prev.name!r}"
        )


def _faulted_pipeline(target: str, mode: str, guard):
    pm = standard_cleanup_pipeline()
    pm.guard = guard
    pm.passes = [
        FaultyPass(p, mode=mode) if p.name == target else p
        for p in pm.passes
    ]
    return pm


def test_injected_crash_rolls_back_to_pre_pass_state(tmp_path):
    """Fault mode "raise" dirties the module then raises mid-pass; the
    guard must blame the logical pass and restore its pre-pass snapshot."""
    blob = _cleanup_input("gemm")
    module = pickle.loads(blob)
    guard = PassGuard(kind="ir", reproducer_dir=str(tmp_path))
    pm = _faulted_pipeline("instcombine", "raise", guard)
    flag_before = module.opaque_pointers
    with pytest.raises(PassExecutionError) as excinfo:
        pm.run(module)
    assert excinfo.value.pass_name == "instcombine"
    assert isinstance(excinfo.value.__cause__, FaultInjected)
    assert excinfo.value.reproducer_path is not None
    # The mid-mutation dirt (flipped opaque-pointer flag) was rolled back.
    assert module.opaque_pointers == flag_before
    # Passes that completed before the fault kept their stats.
    assert [s.name for s in pm.history] == ["mem2reg", "sccp"]


def test_injected_corruption_is_blamed_on_the_faulted_pass(tmp_path):
    """A guarded manager verifies after *every* pass, so a corrupting pass
    is caught immediately — not at the pipeline flush."""
    module = pickle.loads(_cleanup_input("gemm"))
    guard = PassGuard(kind="ir", reproducer_dir=str(tmp_path))
    pm = _faulted_pipeline("sccp", "corrupt-operand", guard)
    with pytest.raises(PassVerificationError) as excinfo:
        pm.run(module)
    assert excinfo.value.pass_name == "sccp"
    # Rollback restored the verifier-clean pre-pass module.
    from repro.ir.verifier import verify_module

    verify_module(module)


def test_unguarded_fast_mode_still_detects_corruption():
    """Without a guard, detection is never lost: the one verify after the
    last pass still rejects the module, and blames that last pass."""
    module = pickle.loads(_cleanup_input("gemm"))
    pm = _faulted_pipeline("sccp", "corrupt-operand", None)
    with pytest.raises(PassVerificationError) as excinfo:
        pm.run(module)
    assert excinfo.value.pass_name == "dce"
