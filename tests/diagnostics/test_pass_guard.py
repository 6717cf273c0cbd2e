"""Pass guard: snapshot/rollback on failure, crash-reproducer emission,
and replay — for both the IR and the MLIR pass managers."""

import json
import os
import random

import pytest

from repro.diagnostics import (
    CrashReproducer,
    DiagnosticEngine,
    PassExecutionError,
    PassGuard,
    PassVerificationError,
    ReplayError,
    replay,
)
from repro.ir import print_module, verify_module
from repro.ir.transforms import DeadCodeElimination
from repro.testing import FaultInjected, inject_into
from repro.testing.fault_injection import _corrupt_operand
from repro.adaptor import HLSAdaptor


def _normalize(text):
    """Erase the one cosmetic print/parse/print difference: the ordering
    of predecessor labels inside ``; preds =`` comments."""
    out = []
    for line in text.splitlines():
        if "; preds = " in line:
            head, preds = line.split("; preds = ", 1)
            line = head + "; preds = " + ", ".join(sorted(preds.split(", ")))
        out.append(line)
    return "\n".join(out)


@pytest.fixture
def seed_module():
    from repro.testing import build_seed_module

    return build_seed_module("gemm", NI=4, NJ=4, NK=4)


class TestGuardedFailure:
    def test_raise_fault_rolls_back_and_emits_reproducer(self, tmp_path, seed_module):
        before = _normalize(print_module(seed_module))
        adaptor = HLSAdaptor(
            reproducer_dir=str(tmp_path),
            instrument=inject_into("attr-scrub", mode="raise"),
        )
        with pytest.raises(PassExecutionError) as ei:
            adaptor.run(seed_module)
        err = ei.value
        assert err.pass_name == "attr-scrub"
        assert err.code == "REPRO-PASS-001"
        # Rolled back: module verifies and matches its pre-pass printing
        # (the "raise" fault flips opaque_pointers before raising, so a
        # successful rollback must have restored it).
        verify_module(seed_module)
        assert seed_module.opaque_pointers is False
        assert err.reproducer_path is not None
        assert os.path.exists(err.reproducer_path)
        # Earlier passes ran, so the text differs from the *input*, but the
        # module must print clean, parseable IR after restore.
        assert before  # sanity: non-empty

    def test_reproducer_file_contents(self, tmp_path, seed_module):
        adaptor = HLSAdaptor(
            reproducer_dir=str(tmp_path),
            instrument=inject_into("attr-scrub", mode="raise"),
        )
        with pytest.raises(PassExecutionError) as ei:
            adaptor.run(seed_module)
        with open(ei.value.reproducer_path) as fh:
            data = json.load(fh)
        assert data["kind"] == "ir"
        assert data["failing_pass"] == "attr-scrub"
        assert data["pipeline"][0] == "attr-scrub"
        assert "loop-metadata" in data["pipeline"]  # the un-run tail
        assert data["diagnostic"]["code"] == "REPRO-PASS-001"
        assert "define" in data["module"]
        assert data["version"] == 1
        # side tables travel with the reproducer
        assert data["function_info"]
        rep = CrashReproducer.load(ei.value.reproducer_path)
        assert rep.failing_pass == "attr-scrub"

    def test_corrupting_fault_is_caught_post_pass(self, tmp_path, seed_module):
        adaptor = HLSAdaptor(
            reproducer_dir=str(tmp_path),
            instrument=inject_into("dce", mode="corrupt-operand"),
        )
        with pytest.raises(PassVerificationError) as ei:
            adaptor.run(seed_module)
        assert ei.value.code == "REPRO-PASS-002"
        assert ei.value.pass_name == "dce"
        # rollback means the module is verifier-clean again
        verify_module(seed_module)

    def test_filename_is_content_addressed(self, tmp_path, seed_module):
        adaptor = HLSAdaptor(
            reproducer_dir=str(tmp_path),
            instrument=inject_into("attr-scrub", mode="raise"),
        )
        with pytest.raises(PassExecutionError) as ei:
            adaptor.run(seed_module)
        name = os.path.basename(ei.value.reproducer_path)
        assert name.startswith("ir-attr-scrub-")
        assert name.endswith(".repro.json")


class TestReplay:
    def test_replay_with_same_fault_reproduces(self, tmp_path, seed_module):
        fault = inject_into("attr-scrub", mode="raise")
        adaptor = HLSAdaptor(reproducer_dir=str(tmp_path), instrument=fault)
        with pytest.raises(PassExecutionError) as ei:
            adaptor.run(seed_module)
        result = replay(ei.value.reproducer_path, instrument=fault)
        assert result.reproduced
        assert result.diagnostic is not None
        assert result.diagnostic.code == ei.value.code
        assert result.diagnostic.pass_name == "attr-scrub"

    def test_replay_without_fault_confirms_fix(self, tmp_path, seed_module):
        adaptor = HLSAdaptor(
            reproducer_dir=str(tmp_path),
            instrument=inject_into("attr-scrub", mode="raise"),
        )
        with pytest.raises(PassExecutionError) as ei:
            adaptor.run(seed_module)
        # Replaying without the fault runs the remaining pipeline clean:
        # the "is this bug fixed?" workflow.
        result = replay(ei.value.reproducer_path)
        assert not result.reproduced
        assert result.error is None
        assert result.module is not None
        verify_module(result.module)

    def test_replay_reproduces_verification_failure(self, tmp_path, seed_module):
        # A plain function pass that corrupts the IR: replay must verify it
        # right after it runs, as the guarded run did, before the rest of
        # the pipeline can rebuild the broken instruction away.
        class CorruptingDCE(DeadCodeElimination):
            def run_on_function(self, fn, stats):
                super().run_on_function(fn, stats)
                _corrupt_operand(fn.module, random.Random(0))

        def fault(name, pass_):
            return CorruptingDCE() if name == "dce" else pass_

        adaptor = HLSAdaptor(reproducer_dir=str(tmp_path), instrument=fault)
        with pytest.raises(PassVerificationError) as ei:
            adaptor.run(seed_module)
        assert ei.value.pass_name == "dce"
        result = replay(ei.value.reproducer_path, instrument=fault)
        assert result.reproduced
        assert result.diagnostic.code == "REPRO-PASS-002"
        assert result.diagnostic.pass_name == "dce"

    def test_replay_rejects_garbage_file(self, tmp_path):
        bad = tmp_path / "not-a-reproducer.repro.json"
        bad.write_text("{json but wrong}")
        with pytest.raises(ReplayError):
            replay(str(bad))

    def test_replay_missing_file(self, tmp_path):
        with pytest.raises(ReplayError):
            replay(str(tmp_path / "nope.repro.json"))


class TestMLIRGuard:
    def test_mlir_rollback_and_replay(self, tmp_path):
        from repro.mlir.passes.pass_manager import MLIRPassManager
        from repro.mlir.printer import print_module as print_mlir
        from repro.workloads import build_kernel

        spec = build_kernel("gemm", NI=4, NJ=4, NK=4)
        before = print_mlir(spec.module)

        class BoomPass:
            name = "canonicalize"  # must be a registered name for replay

            def run_on_module(self, module, stats):
                module.op.regions[0].blocks[0].operations.clear()
                raise FaultInjected("mlir boom")

        guard = PassGuard(
            kind="mlir",
            reproducer_dir=str(tmp_path),
            engine=DiagnosticEngine(),
            pipeline_name="mlir-lowering",
        )
        pm = MLIRPassManager(guard=guard)
        pm.add(BoomPass())
        with pytest.raises(PassExecutionError) as ei:
            pm.run(spec.module)
        assert print_mlir(spec.module) == before  # rolled back
        assert os.path.basename(ei.value.reproducer_path).startswith(
            "mlir-canonicalize-"
        )
        # Without the fault, the real canonicalize pass runs clean.
        result = replay(ei.value.reproducer_path)
        assert not result.reproduced
