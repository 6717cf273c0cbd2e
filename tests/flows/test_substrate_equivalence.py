"""Substrate-equivalence sweep: guarding a pass manager must be invisible
in outputs.

An unguarded pass manager verifies once, after its last pass, and leans on
the clean-token and version-keyed analysis caches.  A guarded manager (the
one ``HLSAdaptor(on_error="recover")`` and ``reproducer_dir=`` build)
snapshots before and verifies after every pass, because rollback and blame
need it.  Neither may change what the pipeline produces.  This sweep
compiles every MINI suite kernel once per path and pins the contract
byte-for-byte:

* printed adaptor IR is identical,
* lint reports are identical (same rules run, same findings),
* per-pass rewrite statistics are identical (Fig. 3 inputs),
* synthesis estimates are identical,
* ``StatisticsRegistry`` counters and the category-``"pass"`` span
  sequence are identical.
"""

from __future__ import annotations

import pytest

from repro.diagnostics import PassGuard
from repro.flows import OptimizationConfig, adaptor_flow, run_adaptor_flow
from repro.ir.printer import print_module
from repro.observability import (
    StatisticsRegistry,
    Tracer,
    use_statistics,
    use_tracer,
)
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

KERNELS = sorted(SUITE_SIZES["MINI"])


def _guarded(factory, kind: str):
    def build():
        pm = factory()
        pm.guard = PassGuard(kind=kind)
        return pm

    return build


def _compile(kernel: str, reproducer_dir=None):
    """Compile ``kernel``; with ``reproducer_dir`` every pass manager of the
    flow (MLIR lowering, IR cleanup, adaptor) runs guarded."""
    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    OptimizationConfig.optimized(ii=1).apply(spec)
    tracer = Tracer()
    registry = StatisticsRegistry()
    with pytest.MonkeyPatch.context() as mp:
        if reproducer_dir is not None:
            mp.setattr(
                adaptor_flow, "lowering_pipeline",
                _guarded(adaptor_flow.lowering_pipeline, "mlir"),
            )
            mp.setattr(
                adaptor_flow, "standard_cleanup_pipeline",
                _guarded(adaptor_flow.standard_cleanup_pipeline, "ir"),
            )
        with use_tracer(tracer), use_statistics(registry):
            result = run_adaptor_flow(
                spec, lint="report", reproducer_dir=reproducer_dir
            )
    return result, tracer, registry


def _lint_fingerprint(report):
    assert report is not None
    return (
        report.module_name,
        report.rules_run,
        tuple(sorted(report.disabled)),
        tuple(
            (f.code, f.rule, f.severity, f.message, f.function, f.location)
            for f in report.findings
        ),
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_fast_mode_is_bit_identical(kernel, tmp_path):
    fast, fast_tracer, fast_registry = _compile(kernel)
    guarded, guarded_tracer, guarded_registry = _compile(
        kernel, reproducer_dir=str(tmp_path)
    )

    assert print_module(fast.ir_module) == print_module(guarded.ir_module), (
        f"{kernel}: the fast path changed the printed adaptor IR"
    )
    assert _lint_fingerprint(fast.lint_report) == _lint_fingerprint(
        guarded.lint_report
    ), f"{kernel}: the fast path changed the lint report"
    # Per-pass rewrite statistics feed Fig. 3.
    assert [
        (s.name, s.rewrites, s.details) for s in fast.adaptor_report.passes
    ] == [
        (s.name, s.rewrites, s.details) for s in guarded.adaptor_report.passes
    ], f"{kernel}: the fast path changed per-pass statistics"
    assert (
        fast.synth_report.latency_min,
        fast.synth_report.latency_max,
        fast.synth_report.resources,
    ) == (
        guarded.synth_report.latency_min,
        guarded.synth_report.latency_max,
        guarded.synth_report.resources,
    ), f"{kernel}: the fast path changed the synthesis estimate"
    assert fast_registry.as_dict() == guarded_registry.as_dict(), (
        f"{kernel}: the fast path changed the statistics counters"
    )
    assert [s.name for s in fast_tracer.by_category("pass")] == [
        s.name for s in guarded_tracer.by_category("pass")
    ], f"{kernel}: the fast path changed the pass-span sequence"
    assert not list(tmp_path.iterdir()), "a guarded pass wrote a reproducer"
