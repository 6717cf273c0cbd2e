"""The paper's flow: MLIR -> LLVM IR -> **adaptor** -> HLS engine.

No C++ is ever generated: the IR produced by MLIR lowering is rewritten in
place into the HLS frontend's dialect, preserving expression details.

Every stage is guarded: unstructured failures surface as
:class:`repro.diagnostics.FlowError` with stage attribution, structured
:class:`repro.diagnostics.CompilationError`\\ s pass through.  ``on_error``
and ``reproducer_dir`` forward to :class:`repro.adaptor.HLSAdaptor` for
graceful degradation and crash reproducers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

from ..adaptor import AdaptorReport, HLSAdaptor
from ..backends import HLSBackend, create_backend, resolve_backend_id
from ..hls.report import SynthReport
from ..ir import Module
from ..ir.transforms import standard_cleanup_pipeline
from ..mlir.passes import convert_to_llvm, lowering_pipeline
from ..observability import get_tracer
from ..workloads.polybench import KernelSpec
from .stage import flow_stage

__all__ = ["AdaptorFlowResult", "run_adaptor_flow"]


@dataclass
class AdaptorFlowResult:
    """One kernel's trip through the adaptor flow.

    ``ir_module`` is the adapted module the backend synthesized and
    ``modern_ir_module`` the pre-adaptor snapshot (only with
    ``keep_modern_snapshot``).  :func:`run_adaptor_flow` always sets
    ``ir_module``; rows served by :mod:`repro.service` carry results only,
    so there both fields are ``None``.
    """

    kernel: str
    ir_module: Optional[Module]
    adaptor_report: AdaptorReport
    synth_report: SynthReport
    timings: Dict[str, float] = field(default_factory=dict)
    modern_ir_module: Optional[Module] = None
    raw_instruction_count: int = 0  # straight out of MLIR lowering

    @property
    def lint_report(self):
        """The post-adaptor lint verdict (Optional[repro.lint.LintReport])."""
        return self.adaptor_report.lint

    @property
    def latency(self) -> int:
        return self.synth_report.latency

    @property
    def resources(self) -> Dict[str, int]:
        return self.synth_report.resources

    @property
    def degraded(self) -> bool:
        return self.adaptor_report.degraded


def run_adaptor_flow(
    spec: KernelSpec,
    device: str = "xc7z020",
    disable_adaptor_passes: Sequence[str] = (),
    keep_modern_snapshot: bool = False,
    strict_frontend: bool = True,
    on_error: str = "raise",
    reproducer_dir: Optional[str] = None,
    lint: str = "gate",
    backend: Union[str, HLSBackend, None] = None,
) -> AdaptorFlowResult:
    """Run one kernel through the adaptor flow end to end.

    ``backend`` is a registry id (``repro.backends``, default ``static``)
    or a constructed :class:`HLSBackend`; device/strict-frontend plumbing
    happens once, inside :func:`~repro.backends.create_backend`.

    The kernel's MLIR module is consumed (lowered in place); build a fresh
    spec per flow invocation.
    """
    timings: Dict[str, float] = {}

    with get_tracer().span("adaptor-flow", category="flow", kernel=spec.name):
        with flow_stage("adaptor", "lower", timings):
            lowering_pipeline().run(spec.module)
            ir_module = convert_to_llvm(spec.module)
        raw_count = sum(
            len(b.instructions) for f in ir_module.defined_functions() for b in f.blocks
        )

        modern_snapshot = None
        if keep_modern_snapshot:
            from ..ir.parser import parse_module
            from ..ir.printer import print_module

            modern_snapshot = parse_module(print_module(ir_module))

        with flow_stage("adaptor", "cleanup", timings):
            standard_cleanup_pipeline().run(ir_module)

        with flow_stage("adaptor", "adaptor", timings):
            adaptor = HLSAdaptor(
                disable=disable_adaptor_passes,
                on_error=on_error,
                reproducer_dir=reproducer_dir,
                lint=lint,
                lint_backend=resolve_backend_id(backend),
            )
            adaptor_report = adaptor.run(ir_module)

        with flow_stage("adaptor", "synthesis", timings):
            engine = create_backend(
                backend, device=device, strict_frontend=strict_frontend
            )
            synth_report = engine.synthesize(ir_module)

    return AdaptorFlowResult(
        kernel=spec.name,
        ir_module=ir_module,
        adaptor_report=adaptor_report,
        synth_report=synth_report,
        timings=timings,
        modern_ir_module=modern_snapshot,
        raw_instruction_count=raw_count,
    )
