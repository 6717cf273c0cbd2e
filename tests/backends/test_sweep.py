"""Backend-neutrality sweep over the adapted suite.

Two claims the registry refactor must keep true forever:

* every backend accepts every adapted MINI kernel — the adaptor's output
  is the *contract* frontend dialect, not something tuned to one engine;
* the static backend still reproduces the standalone static engine it
  grew out of: its reports are bit-identical to the ones pinned in
  ``report_snapshot.json`` (same scheduling, same binding, same numbers).
"""

from __future__ import annotations

import json

import pytest

from repro.adaptor import HLSAdaptor
from repro.backends import backend_ids, create_backend
from repro.ir.transforms import standard_cleanup_pipeline
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.service.service import resolve_config
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

from .test_report_snapshot import SNAPSHOT, report_dict

KERNELS = sorted(SUITE_SIZES["MINI"])


@pytest.fixture(scope="module")
def adapted():
    """kernel -> adapted LLVM IR module (optimised config), built once."""
    modules = {}
    for kernel in KERNELS:
        spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
        resolve_config("optimized").apply(spec)
        lowering_pipeline().run(spec.module)
        module = convert_to_llvm(spec.module)
        standard_cleanup_pipeline().run(module)
        HLSAdaptor(lint="off").run(module)
        modules[kernel] = module
    return modules


@pytest.mark.tier1
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_backend_accepts_every_kernel(adapted, kernel):
    for backend_id in backend_ids():
        report = create_backend(backend_id).synthesize(adapted[kernel])
        assert report.backend == backend_id, (kernel, backend_id)
        assert report.latency_max > 0, (kernel, backend_id)
        assert report.resources["lut"] > 0, (kernel, backend_id)
        assert report.loops, (kernel, backend_id)


@pytest.mark.tier1
@pytest.mark.parametrize("kernel", KERNELS)
def test_static_backend_bit_identical_to_raw_engine(adapted, kernel):
    report = create_backend("static").synthesize(adapted[kernel])
    pinned = json.loads(SNAPSHOT.read_text())[f"{kernel}/optimized"]["static"]
    # Every field — latencies, resources, fu_instances, loop table,
    # warnings, the stamped backend id — must match exactly.
    assert report_dict(report) == pinned, kernel


def test_dataflow_reports_emergent_ii(adapted):
    report = create_backend("dataflow").synthesize(adapted["gemm"])
    inner = [l for l in report.loops if l.ii is not None]
    assert inner, "dataflow gemm must report at least one overlapped loop"
    for loop in inner:
        assert loop.pipelined  # iteration overlap is the default
        assert loop.ii >= 1
    # gemm's reduction carries a dependence: the emergent II exceeds 1
    # even though no pipeline directive constrained it.
    assert any(l.ii > 1 for l in inner)


def test_dataflow_flags_ignored_static_directives(adapted):
    report = create_backend("dataflow").synthesize(adapted["gemm"])
    assert any("ignored" in w for w in report.frontend_warnings)
