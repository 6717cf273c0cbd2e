"""``python -m repro lint``: subcommands, targets, and exit codes."""

from __future__ import annotations

import json
import os

import pytest

from repro.ir import print_module
from repro.lint import LINT_RULES
from repro.cli import main
from repro.lint.cli import render_rules_markdown

from .fixtures import CLEANS

GOLDEN_GEMM = os.path.join(
    os.path.dirname(__file__), "..", "golden", "goldens", "gemm.ll"
)


def run_cli(capsys, *argv):
    code = main(["lint", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRules:
    def test_markdown_table_lists_every_rule(self, capsys):
        code, out, _ = run_cli(capsys, "rules")
        assert code == 0
        for rule_code in LINT_RULES:
            assert rule_code in out
        assert out == render_rules_markdown()

    def test_json_registry(self, capsys):
        code, out, _ = run_cli(capsys, "rules", "--json")
        assert code == 0
        data = json.loads(out)
        assert {r["code"] for r in data} == set(LINT_RULES)
        assert all(
            {"code", "name", "severity", "description"} <= set(r) for r in data
        )


class TestCheckKernels:
    def test_post_adaptor_kernel_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, "check", "gemm")
        assert code == 0
        assert "OK: 1/1" in out

    def test_pre_adaptor_kernel_fails(self, capsys):
        code, out, _ = run_cli(capsys, "check", "gemm", "--pre")
        assert code == 1
        assert "FAIL" in out
        assert "REPRO-LINT-002" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "check", "gemm", "--pre", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        (report,) = data["reports"]
        assert report["clean"] is False
        assert "REPRO-LINT-005" in report["codes"]

    def test_rule_selection_narrows_the_run(self, capsys):
        # Pre-adaptor IR has no freeze: selecting only no-freeze passes.
        code, out, _ = run_cli(
            capsys, "check", "gemm", "--pre", "--rule", "no-freeze"
        )
        assert code == 0

    def test_disable_waives_named_rules(self, capsys):
        code, _, _ = run_cli(
            capsys, "check", "gemm", "--pre",
            "--disable", "typed-pointers",
            "--disable", "no-struct-ssa",
            "--disable", "gep-canonical-shape",
            "--disable", "hls-loop-metadata",
            "--disable", "interface-contract",
        )
        assert code == 0

    def test_fail_on_warning_tightens_the_verdict(self, capsys):
        args = ("check", "gemm", "--pre", "--rule", "gep-canonical-shape")
        code_default, _, _ = run_cli(capsys, *args)
        code_strict, _, _ = run_cli(capsys, *args, "--fail-on", "warning")
        assert code_default == 0  # warnings tolerated at the default threshold
        assert code_strict == 1

    def test_unknown_kernel_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "nope")
        assert code == 2
        assert "error[" in err


class TestCheckFiles:
    def test_golden_snapshot_lints_clean(self, capsys):
        code, out, _ = run_cli(capsys, "check", GOLDEN_GEMM)
        assert code == 0
        assert "OK: 1/1" in out

    def test_fixture_roundtrips_through_ll_text(self, capsys, tmp_path):
        path = tmp_path / "clean.ll"
        path.write_text(print_module(CLEANS["REPRO-LINT-001"]()))
        code, _, _ = run_cli(capsys, "check", str(path))
        assert code == 0

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "no-such-file.ll")
        assert code == 2
        assert "error" in err

    def test_unknown_rule_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "check", GOLDEN_GEMM, "--rule", "not-a-rule"
        )
        assert code == 2
        assert "unknown rule" in err
