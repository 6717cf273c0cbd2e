"""Smoke test of the benchmark itself: ``python -m pytest benchmarks/perf -q``.

Runs every workload for one round on two kernels, untraced and traced,
and checks the result schema, the output check, trace coverage and the
``compare`` verdicts.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf.__main__ import build_parser
from benchmarks.perf.compare import compare
from benchmarks.perf.metrics import END_TO_END, PER_LAYER
from benchmarks.perf.runner import ROOT, WORKLOADS, result_path

KERNELS = "atax,bicg"


def _run(tmp_path, *args, cwd=ROOT):
    """Run the benchmark; returns the process and its result JSON path."""
    command = [
        "run", "--seconds", "0.1", "--kernels", KERNELS,
        "--results-dir", str(tmp_path), *args,
    ]
    # Only the checkout in ``cwd`` may provide the benchmark.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *command],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    return proc, result_path(build_parser().parse_args(command))


def _last_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("traced")
    proc, out = _run(tmp_path, "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    with open(out, encoding="utf-8") as fh:
        return _last_line(proc), json.load(fh)


def test_benchmark_json_mirrors_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    } == {name: tuple(m) for name, m in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (m.unit, m.better) for name, m in PER_LAYER.items()
    }


def test_traced_run_reports_every_metric(traced):
    line, doc = traced
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in PER_LAYER}
    for name, value in line["metrics"].items():
        assert value["unit"] == PER_LAYER[name.split("/", 1)[1]].unit
        assert isinstance(value["value"], (int, float))
    for workload, result in doc["workloads"].items():
        assert set(result["end_to_end"]) == set(END_TO_END)
        assert all(m["value"] > 0 for m in result["end_to_end"].values()), workload
        assert result["error_rate"] == 0


def test_traced_spans_cover_the_traced_wall(traced):
    _, doc = traced
    for workload in ("verify_small", "compile_mini"):
        assert doc["workloads"][workload]["trace"]["coverage"] >= 0.9


def test_tampered_expected_value_is_an_error(tmp_path):
    with open(os.path.join(ROOT, "benchmarks", "perf", "expected.json")) as fh:
        expected = json.load(fh)
    expected["rows"]["atax/baseline/MINI/static"]["adaptor"]["latency"] += 1
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    proc, out = _run(
        tmp_path, "--workload", "compile_mini", "--expected", str(tampered)
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = _last_line(proc)
    assert set(line["metrics"]) == set(END_TO_END)
    assert not line["correct"] and line["failed"] > 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["workloads"]["compile_mini"]["error_rate"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "perf"), tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, _ = _run(tmp_path, "--workload", "compile_mini", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts(tmp_path, capsys):
    run = {
        "error_rate": 0.0,
        "end_to_end": {
            name: {"value": 100.0, "unit": m.unit, "samples": [99.0, 100.0, 101.0]}
            for name, m in END_TO_END.items()
        },
    }
    base = {"workloads": {"compile_mini": run}}
    slower = copy.deepcopy(base)
    slower["workloads"]["compile_mini"]["end_to_end"]["throughput_rps"]["value"] = 50.0
    noisy = copy.deepcopy(slower)
    noisy["workloads"]["compile_mini"]["end_to_end"]["throughput_rps"]["samples"] = [
        20.0, 50.0, 80.0,
    ]
    failing = copy.deepcopy(base)
    failing["workloads"]["compile_mini"]["error_rate"] = 0.1
    paths = {}
    for name, doc in (("base", base), ("slower", slower), ("noisy", noisy),
                      ("failing", failing)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert compare(paths["base"], paths["base"]) == 0
    assert compare(paths["base"], paths["slower"]) == 1
    assert compare(paths["base"], paths["noisy"]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare(paths["base"], paths["failing"]) == 1
