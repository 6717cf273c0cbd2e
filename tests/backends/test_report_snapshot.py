"""Full-report snapshot of both backends over the adapted MINI suite.

Every field of every :class:`~repro.hls.report.SynthReport` — headline
latencies, resources, ``fu_instances``, the loop table, frontend warnings
and dropped-directive counts, the device by name — is pinned against
``report_snapshot.json``.  Refactors of the synthesis engines must leave
this file untouched; a deliberate model change regenerates it with::

    pytest tests/backends/test_report_snapshot.py --update-goldens

Cases: every MINI kernel under the paper's ``baseline`` and ``optimized``
recipes, plus gemm and doitgen with the loop one level out unrolled by 2
(outer-loop unrolling over a child loop) — once on single-bank arrays,
where the child copies serialise, and once with cyclic-2 partitioning,
where they run in parallel on replicated child area — each on every
registered backend.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.adaptor import HLSAdaptor
from repro.backends import backend_ids, create_backend
from repro.flows.config import OptimizationConfig
from repro.ir.transforms import standard_cleanup_pipeline
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.service.service import resolve_config
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

SNAPSHOT = Path(__file__).with_name("report_snapshot.json")

CONFIGS = {
    "baseline": resolve_config("baseline"),
    "optimized": resolve_config("optimized"),
    "u1x2": OptimizationConfig(name="u1x2", unroll_levels={1: 2}),
    "u1x2+part-cyclic2": OptimizationConfig.point(unroll={1: 2}, partition_factor=2),
}
CASES = [(kernel, config) for kernel in sorted(SUITE_SIZES["MINI"])
         for config in ("baseline", "optimized")]
CASES += [(kernel, config) for kernel in ("gemm", "doitgen")
          for config in ("u1x2", "u1x2+part-cyclic2")]


def report_dict(report) -> dict:
    data = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    data["device"] = report.device.name
    data["loops"] = [dataclasses.asdict(loop) for loop in report.loops]
    return data


def synthesize_case(kernel: str, config: str) -> dict:
    """backend id -> report dict for one adapted (kernel, config)."""
    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    CONFIGS[config].apply(spec)
    lowering_pipeline().run(spec.module)
    module = convert_to_llvm(spec.module)
    standard_cleanup_pipeline().run(module)
    HLSAdaptor(lint="off").run(module)
    return {
        backend: report_dict(create_backend(backend).synthesize(module))
        for backend in backend_ids()
    }


@pytest.fixture(scope="module")
def snapshot(request):
    update = request.config.getoption("--update-goldens")
    data = {} if update or not SNAPSHOT.exists() else json.loads(SNAPSHOT.read_text())
    yield data
    if update:
        SNAPSHOT.write_text(json.dumps(data, indent=1) + "\n")


@pytest.mark.parametrize("kernel,config", CASES)
def test_reports_match_snapshot(snapshot, update_goldens, kernel, config):
    case = f"{kernel}/{config}"
    actual = synthesize_case(kernel, config)
    if update_goldens:
        snapshot[case] = actual
        pytest.skip(f"snapshot updated: {case}")
    assert case in snapshot, (
        f"missing snapshot case {case}; rerun with --update-goldens"
    )
    assert list(actual) == list(snapshot[case])
    # Compare serialised text so dict key order is pinned too.
    for backend, report in actual.items():
        assert json.dumps(report, indent=1) == json.dumps(
            snapshot[case][backend], indent=1
        ), f"{case} [{backend}] drifted from {SNAPSHOT.name}"
