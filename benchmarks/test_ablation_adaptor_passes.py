"""Ablation A [reconstructed]: disable each adaptor pass and observe the
consequence — frontend rejection (legality passes) or directive loss and
latency regression (loop-metadata).

This quantifies what each pass of the paper's contribution is for.
"""

import pytest

from repro.flows import OptimizationConfig, run_adaptor_flow
from repro.hls import FrontendError, HLSFrontend
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

from .harness import SUITE_SIZE_CLASS, render_table, write_result

ABLATION_KERNELS = ["gemm", "atax", "jacobi_2d"]

# Pass (sets) to disable and the consequence class we expect.
ABLATIONS = [
    (("pointer-retyping",), "reject"),
    (("struct-flatten", "interface-lowering", "gep-canonicalize",
      "pointer-retyping"), "reject"),
    (("intrinsic-legalize",), "accept"),  # math-only kernels don't need it
    (("loop-metadata",), "directives-lost"),
    ((), "accept"),
]


def _run_one(kernel: str, disabled):
    spec = build_kernel(kernel, **SUITE_SIZES[SUITE_SIZE_CLASS][kernel])
    OptimizationConfig.optimized(ii=1).apply(spec)
    result = run_adaptor_flow(
        spec, disable_adaptor_passes=list(disabled), strict_frontend=False
    )
    diag = HLSFrontend(strict=False).check(result.ir_module)
    return result, diag


def test_ablation_adaptor_passes(benchmark):
    def sweep():
        out = []
        for kernel in ABLATION_KERNELS:
            for disabled, expectation in ABLATIONS:
                result, diag = _run_one(kernel, disabled)
                out.append((kernel, disabled, expectation, result, diag))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    full_latency = {
        (kernel, ()): result.latency
        for kernel, disabled, _e, result, _d in results
        if disabled == ()
    }

    rows = []
    for kernel, disabled, expectation, result, diag in results:
        label = ",".join(disabled) if disabled else "(none)"
        verdict = "accepted" if diag.accepted else "REJECTED"
        rows.append(
            [
                kernel,
                label[:44],
                verdict,
                diag.dropped_directives,
                result.latency,
            ]
        )
    text = render_table(
        "Ablation A [reconstructed]: adaptor pass knock-outs",
        ["kernel", "disabled passes", "frontend", "dropped dirs", "latency"],
        rows,
    )
    print("\n" + text)
    write_result("ablationA_adaptor_passes", text)

    for kernel, disabled, expectation, result, diag in results:
        if expectation == "reject":
            assert not diag.accepted, (kernel, disabled)
        elif expectation == "accept":
            assert diag.accepted, (kernel, disabled)
        elif expectation == "directives-lost":
            assert diag.accepted, (kernel, disabled)
            assert diag.dropped_directives > 0, (kernel, disabled)
            # Losing the pipeline directive regresses latency vs full adaptor.
            assert result.latency > full_latency[(kernel, ())], (kernel, disabled)
