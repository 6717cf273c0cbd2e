"""The baseline flow: MLIR -> HLS C++ -> Vitis-clang-style frontend -> HLS
engine (the round trip the paper's adaptor replaces).

Stages are guarded like the adaptor flow's: unstructured failures become
:class:`repro.diagnostics.FlowError` with stage attribution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..backends import HLSBackend, create_backend
from ..hls.report import SynthReport
from ..hlscpp import compile_hls_cpp, generate_hls_cpp
from ..ir import Module
from ..ir.transforms import standard_cleanup_pipeline
from ..observability import get_tracer
from ..workloads.polybench import KernelSpec
from .stage import flow_stage

__all__ = ["CppFlowResult", "run_cpp_flow"]


@dataclass
class CppFlowResult:
    """One kernel's trip through the HLS-C++ flow.

    ``ir_module`` is the frontend's module after cleanup, the one the
    backend synthesized.  :func:`run_cpp_flow` always sets it; rows served
    by :mod:`repro.service` carry results only, so there it is ``None``.
    """

    kernel: str
    cpp_source: str
    ir_module: Optional[Module]
    synth_report: SynthReport
    timings: Dict[str, float] = field(default_factory=dict)
    raw_instruction_count: int = 0  # straight out of the C frontend

    @property
    def latency(self) -> int:
        return self.synth_report.latency

    @property
    def resources(self) -> Dict[str, int]:
        return self.synth_report.resources


def run_cpp_flow(
    spec: KernelSpec,
    device: str = "xc7z020",
    backend: Union[str, HLSBackend, None] = None,
) -> CppFlowResult:
    """Run one kernel through the HLS-C++ baseline flow end to end."""
    timings: Dict[str, float] = {}

    with get_tracer().span("cpp-flow", category="flow", kernel=spec.name):
        with flow_stage("cpp", "codegen", timings):
            cpp_source = generate_hls_cpp(spec.module)

        with flow_stage("cpp", "c-frontend", timings):
            ir_module = compile_hls_cpp(cpp_source)
        raw_count = sum(
            len(b.instructions) for f in ir_module.defined_functions() for b in f.blocks
        )

        with flow_stage("cpp", "cleanup", timings):
            standard_cleanup_pipeline().run(ir_module)

        with flow_stage("cpp", "synthesis", timings):
            engine = create_backend(backend, device=device, strict_frontend=True)
            synth_report = engine.synthesize(ir_module)

    return CppFlowResult(
        kernel=spec.name,
        cpp_source=cpp_source,
        ir_module=ir_module,
        synth_report=synth_report,
        timings=timings,
        raw_instruction_count=raw_count,
    )
