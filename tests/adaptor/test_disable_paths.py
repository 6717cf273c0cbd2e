"""HLSAdaptor configuration error paths: unknown ``disable`` names and the
report's disabled-pass bookkeeping."""

import pytest

from repro.adaptor import ADAPTOR_PASS_ORDER, HLSAdaptor
from repro.diagnostics import PipelineConfigError
from repro.testing import build_seed_module


@pytest.fixture
def seed_module():
    return build_seed_module("gemm", NI=4, NJ=4, NK=4)


class TestUnknownDisable:
    def test_unknown_pass_raises_config_error(self):
        with pytest.raises(PipelineConfigError) as ei:
            HLSAdaptor(disable=["not-a-pass"])
        msg = str(ei.value)
        assert "not-a-pass" in msg
        # the message must teach: every valid pass name is listed
        for name in ADAPTOR_PASS_ORDER:
            assert name in msg

    def test_unknown_pass_is_still_value_error(self):
        # pre-diagnostics callers caught ValueError; keep that working
        with pytest.raises(ValueError):
            HLSAdaptor(disable=["bogus"])

    def test_multiple_unknown_all_reported(self):
        with pytest.raises(PipelineConfigError) as ei:
            HLSAdaptor(disable=["zzz", "aaa", "dce"])
        msg = str(ei.value)
        assert "aaa" in msg and "zzz" in msg

    def test_unknown_on_error_mode(self):
        with pytest.raises(PipelineConfigError) as ei:
            HLSAdaptor(on_error="panic")
        assert "panic" in str(ei.value)

    def test_error_carries_stable_code(self):
        with pytest.raises(PipelineConfigError) as ei:
            HLSAdaptor(disable=["bogus"])
        assert ei.value.code == "REPRO-CFG-001"


class TestDisabledReportFields:
    def test_disabled_passes_recorded_and_skipped(self, seed_module):
        report = HLSAdaptor(disable=["attr-scrub", "final-dce"]).run(seed_module)
        assert report.disabled == ("attr-scrub", "final-dce")
        ran = [p.name for p in report.passes]
        assert "attr-scrub" not in ran
        assert "final-dce" not in ran
        assert "pointer-retyping" in ran
        assert "attr-scrub" in report.summary()

    def test_no_disable_means_full_pipeline(self, seed_module):
        report = HLSAdaptor().run(seed_module)
        assert report.disabled == ()
        assert [p.name for p in report.passes] == list(ADAPTOR_PASS_ORDER)

