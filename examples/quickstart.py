#!/usr/bin/env python3
"""Quickstart: run one kernel through the paper's adaptor flow.

Builds a PolyBench gemm at the MLIR level, lowers it to modern LLVM IR,
shows that the Vitis-style HLS frontend *rejects* it, runs the MLIR HLS
Adaptor, and synthesises the adapted module into a csynth-style report.

    python examples/quickstart.py
"""

import numpy as np

from repro.adaptor import HLSAdaptor
from repro.backends import create_backend
from repro.hls import HLSFrontend
from repro.ir import print_module, run_kernel
from repro.ir.transforms import standard_cleanup_pipeline
from repro.mlir import print_module as print_mlir
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.mlir.passes.loop_pipeline import set_loop_directives
from repro.workloads import build_kernel


def main() -> None:
    # 1. Build the kernel at the MLIR (affine) level.
    spec = build_kernel("gemm", NI=8, NJ=8, NK=8)
    print("=== MLIR source (affine level) ===")
    print(print_mlir(spec.module))

    # 2. Apply an HLS directive: pipeline the innermost loop at II=1.
    loops = [op for op in spec.fn.op.walk() if op.name == "affine.for"]
    set_loop_directives(loops[-1], pipeline=True, ii=1)

    # 3. Lower to modern LLVM IR (what upstream MLIR would emit).
    lowering_pipeline().run(spec.module)
    ir_module = convert_to_llvm(spec.module)

    # 4. The strict HLS frontend rejects the modern IR — the version gap.
    diagnostics = HLSFrontend(strict=False).check(ir_module)
    print("=== Strict HLS frontend on UNADAPTED IR ===")
    print(f"accepted: {diagnostics.accepted}")
    for error in diagnostics.errors[:4]:
        print(f"  - {error}")
    print(f"  ... ({len(diagnostics.errors)} errors total)\n")

    # 5. Run the adaptor (the paper's contribution).
    standard_cleanup_pipeline().run(ir_module)
    report = HLSAdaptor().run(ir_module)
    print("=== Adaptor report ===")
    print(report.summary())
    print()

    print("=== Adapted (HLS-readable) LLVM IR ===")
    print(print_module(ir_module))

    # 6. Functional check against NumPy.
    arrays = spec.make_inputs(seed=1)
    got = run_kernel(ir_module, "gemm", arrays, spec.scalar_args)
    want = spec.reference(
        **{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args
    )
    max_err = float(np.max(np.abs(got["C"] - want["C"])))
    print(f"functional check vs NumPy: max |err| = {max_err:.2e}")
    assert np.allclose(got["C"], want["C"], rtol=1e-4)

    # 7. Synthesise with the Vitis-style engine.
    synth = create_backend("static", device="xc7z020").synthesize(ir_module)
    print()
    print(synth.summary())


if __name__ == "__main__":
    main()
