"""The unified ``python -m repro`` CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-suite"],
            ["cache", "stats"],
            ["lint", "rules"],
            ["lint", "check", "gemm"],
            ["trace", "gemm"],
            ["stats", "gemm"],
            ["diff", "gemm"],
            ["validate", "x.json"],
            ["dse", "gemm"],
            ["bench"],
        ],
    )
    def test_every_subcommand_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.handler)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestSubcommands:
    def test_run_suite(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--cache-dir", str(tmp_path / "c"), "run-suite",
            "--size", "MINI", "--kernels", "gemm", "--no-equivalence",
        )
        assert code == 0
        assert "gemm" in out

    def test_lint_rules_json(self, capsys):
        code, out, _ = run_cli(capsys, "lint", "rules", "--json")
        assert code == 0
        rules = json.loads(out)
        assert any(r["code"] == "REPRO-LINT-001" for r in rules)

    def test_dse_writes_report_and_hits_cache(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        argv = [
            "--cache-dir", str(tmp_path / "c"), "dse", "gemm",
            "--size", "MINI", "--space", "tiny", "--out", str(out_path),
        ]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "frontier" in out
        doc = json.loads(out_path.read_text())
        assert doc["kernel"] == "gemm"
        assert len(doc["frontier"]) >= 3
        assert "baseline" in doc["frontier"] and "optimized" in doc["frontier"]
        # Second run: every point served from the cache.
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["cache"]["misses"] == 0
        assert doc["cache"]["hits"] == len(doc["points"])

    def test_dse_budget_line(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--cache-dir", str(tmp_path / "c"), "dse", "gemm",
            "--size", "MINI", "--space", "tiny", "--out", "-",
            "--budget", "dsp=220",
        )
        assert code == 0
        assert "best under budget" in out

    def test_bench_speedup_table(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--cache-dir", str(tmp_path / "c"), "bench",
            "--size", "MINI", "--kernels", "gemm", "--no-equivalence",
        )
        assert code == 0
        assert "speedup" in out
        assert "gemm" in out

    def test_validate_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": []}")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1

    def test_unknown_kernel_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "--cache-dir", str(tmp_path / "c"), "dse", "nonesuch"
        )
        assert code == 2
        assert "error" in err


def _module_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def test_unified_module_entry(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "rules"],
        capture_output=True, text=True, env=_module_env(),
        cwd=str(tmp_path), timeout=120,
    )
    assert result.returncode == 0
    assert "REPRO-LINT-001" in result.stdout
