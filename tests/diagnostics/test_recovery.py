"""Graceful degradation (``on_error="recover"``) and incremental pass
history/timing — the robustness behaviours of the adaptor pipeline."""

import pytest

from repro.adaptor import ESSENTIAL_PASSES, ADAPTOR_PASS_ORDER, HLSAdaptor
from repro.diagnostics import DiagnosticEngine, PassExecutionError
from repro.hls import HLSFrontend
from repro.ir import verify_module
from repro.ir.transforms.pass_manager import PassManager
from repro.ir.transforms import DeadCodeElimination, Mem2Reg
from repro.testing import build_seed_module, inject_into


@pytest.fixture
def seed_module():
    return build_seed_module("gemm", NI=4, NJ=4, NK=4)


class TestRecoverMode:
    def test_nonessential_failure_recovers(self, tmp_path, seed_module):
        adaptor = HLSAdaptor(
            on_error="recover",
            reproducer_dir=str(tmp_path),
            instrument=inject_into("attr-scrub", mode="raise"),
        )
        report = adaptor.run(seed_module)
        assert report.degraded
        assert report.auto_disabled == ("attr-scrub",)
        assert len(report.degradations) == 1
        deg = report.degradations[0]
        assert deg.pass_name == "attr-scrub"
        assert deg.code == "REPRO-PASS-001"
        assert deg.reproducer_path is not None
        # A REPRO-DEGRADE-001 warning is on the record
        assert any(d.code == "REPRO-DEGRADE-001" for d in report.diagnostics)
        # The degraded module is still a valid adaptor output
        verify_module(seed_module)
        HLSFrontend(strict=True).check(seed_module)
        # and the summary mentions what happened
        assert "attr-scrub" in report.summary()
        assert "auto-disabled" in report.summary()

    def test_essential_failure_still_raises(self, tmp_path, seed_module):
        adaptor = HLSAdaptor(
            on_error="recover",
            reproducer_dir=str(tmp_path),
            instrument=inject_into("pointer-retyping", mode="raise"),
        )
        with pytest.raises(PassExecutionError) as ei:
            adaptor.run(seed_module)
        assert ei.value.pass_name == "pointer-retyping"
        # rollback still happened
        verify_module(seed_module)

    def test_essential_set_is_sane(self):
        assert ESSENTIAL_PASSES <= set(ADAPTOR_PASS_ORDER)
        assert "pointer-retyping" in ESSENTIAL_PASSES
        assert "dce" not in ESSENTIAL_PASSES
        assert "attr-scrub" not in ESSENTIAL_PASSES

    def test_recover_without_fault_is_clean(self, seed_module):
        report = HLSAdaptor(on_error="recover").run(seed_module)
        assert not report.degraded
        assert report.auto_disabled == ()
        HLSFrontend(strict=True).check(seed_module)

    def test_engine_collects_degradation_warning(self, tmp_path, seed_module):
        engine = DiagnosticEngine()
        HLSAdaptor(
            on_error="recover",
            reproducer_dir=str(tmp_path),
            engine=engine,
            instrument=inject_into("final-dce", mode="raise"),
        ).run(seed_module)
        codes = [d.code for d in engine.diagnostics]
        assert "REPRO-PASS-001" in codes  # the failure itself
        assert "REPRO-DEGRADE-001" in codes  # the recovery record


class TestIncrementalHistory:
    """Satellite: per-pass stats land in PassManager.history as each pass
    completes, so a mid-pipeline failure still reports what ran."""

    def test_history_survives_mid_pipeline_failure(self, seed_module):
        class Boom:
            name = "boom"

            def run_on_module(self, module, stats):
                raise RuntimeError("nope")

            # match ModulePass protocol used by PassManager.run
            def run(self, module):  # pragma: no cover - not used
                raise RuntimeError("nope")

        pm = PassManager()
        pm.add(Mem2Reg())
        pm.add(DeadCodeElimination())
        pm.add(Boom())
        with pytest.raises(PassExecutionError):
            pm.run(seed_module)
        names = [s.name for s in pm.history]
        assert "mem2reg" in names
        assert "dce" in names
        assert "boom" not in names  # it never completed

    def test_history_matches_run_stats_on_success(self, seed_module):
        pm = PassManager()
        pm.add(Mem2Reg())
        pm.add(DeadCodeElimination())
        stats = pm.run(seed_module)
        assert [s.name for s in stats] == [s.name for s in pm.history][-2:]

    def test_report_records_per_pass_timing(self, seed_module):
        report = HLSAdaptor().run(seed_module)
        assert report.passes
        for p in report.passes:
            assert p.seconds >= 0.0
        assert "ms" in report.summary()
