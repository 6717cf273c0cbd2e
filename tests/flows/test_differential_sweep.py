"""Differential equivalence sweep: pre- vs post-adaptor numerics over the
full MINI suite.

For every kernel the modern (pre-adaptor) module and the adapted module
run in the IR interpreter on identical inputs.  The adaptor must be
*semantics-preserving to the bit*: cleanup + legalisation rewrite types,
signatures and metadata, never float arithmetic order.  Both must also
agree with the NumPy oracle to interpreter tolerance.  This promotes the
previous spot-check (gemm/atax via ``compare_flows``) to a tier-1
whole-suite guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flows import run_adaptor_flow
from repro.ir.interpreter import run_kernel
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

SWEEP_SEED = 5
MINI_KERNELS = sorted(SUITE_SIZES["MINI"])


@pytest.mark.parametrize("kernel", MINI_KERNELS)
def test_pre_post_adaptor_differential(kernel):
    sizes = SUITE_SIZES["MINI"][kernel]
    spec = build_kernel(kernel, **sizes)
    result = run_adaptor_flow(spec, keep_modern_snapshot=True)
    assert result.modern_ir_module is not None

    oracle_spec = build_kernel(kernel, **sizes)
    arrays = oracle_spec.make_inputs(SWEEP_SEED)
    oracle = oracle_spec.reference(
        **{k: v.copy() for k, v in arrays.items()}, **oracle_spec.scalar_args
    )
    pre = run_kernel(
        result.modern_ir_module,
        kernel,
        {k: v.copy() for k, v in arrays.items()},
        oracle_spec.scalar_args,
    )
    post = run_kernel(
        result.ir_module,
        kernel,
        {k: v.copy() for k, v in arrays.items()},
        oracle_spec.scalar_args,
    )
    for out in oracle_spec.outputs:
        assert np.array_equal(pre[out], post[out]), (
            f"{kernel}: adaptor changed numerics of output {out!r}"
        )
        assert np.allclose(post[out], oracle[out], rtol=1e-4, atol=1e-5), (
            f"{kernel}: adapted module disagrees with NumPy oracle on {out!r}"
        )


def test_differential_catches_seed_variation():
    """Different inputs produce different outputs — the sweep is not
    trivially passing on all-zero or ignored buffers."""
    sizes = SUITE_SIZES["MINI"]["gemm"]
    spec = build_kernel("gemm", **sizes)
    result = run_adaptor_flow(spec)
    ospec = build_kernel("gemm", **sizes)
    a5 = ospec.make_inputs(5)
    a6 = ospec.make_inputs(6)
    out5 = run_kernel(result.ir_module, "gemm",
                      {k: v.copy() for k, v in a5.items()}, ospec.scalar_args)
    out6 = run_kernel(result.ir_module, "gemm",
                      {k: v.copy() for k, v in a6.items()}, ospec.scalar_args)
    assert not np.array_equal(out5["C"], out6["C"])
