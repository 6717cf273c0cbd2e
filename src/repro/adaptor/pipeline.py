"""The adaptor pipeline: public entry point of the paper's contribution.

``HLSAdaptor`` runs the legalisation passes in dependency order and returns
an :class:`AdaptorReport` with per-pass rewrite counts — the statistics the
reconstructed Fig. 3 plots.  Individual passes can be disabled for the
ablation study (ablation A): the resulting module then fails the strict
frontend or loses directives, quantifying what each pass contributes.

Robustness: every failure is a structured
:class:`repro.diagnostics.CompilationError`.  With ``on_error="recover"``
the adaptor snapshots the input, and when a *non-essential* pass fails it
rolls back, disables that pass, reruns the pipeline, and records the
degradation in the report — essential passes (the ones whose absence the
strict frontend rejects) still hard-fail.  Pass ``reproducer_dir`` (or use
recover mode) to get crash reproducers on disk for any failing pass,
replayable with :func:`repro.diagnostics.replay`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..diagnostics.engine import Diagnostic, DiagnosticEngine, Severity
from ..diagnostics.errors import (
    InputRejectionError,
    LintError,
    PassExecutionError,
    PipelineConfigError,
)
from ..diagnostics.guard import PassGuard
from ..ir.module import Module
from ..ir.snapshot import ModuleSnapshot
from ..ir.transforms import DeadCodeElimination, PassManager
from ..ir.transforms.pass_manager import ModulePass, PassStatistics
from ..ir.verifier import VerificationError, verify_module
from ..observability import get_statistics, get_tracer
from .attr_scrub import AttributeScrub
from .freeze_elim import FreezeElimination
from .gep_canonicalize import GEPCanonicalization
from .interface_lowering import InterfaceLowering
from .intrinsic_legalize import IntrinsicLegalization
from .loop_metadata import LoopMetadataLowering
from .pointer_retyping import PointerRetyping
from .struct_flatten import StructFlattening

__all__ = [
    "HLSAdaptor",
    "AdaptorReport",
    "Degradation",
    "ADAPTOR_PASS_ORDER",
    "ESSENTIAL_PASSES",
    "PASS_FACTORY",
]

# Dependency-ordered pass list. struct-flatten must precede
# interface-lowering (descriptor components must be dead before the
# signature collapses); gep-canonicalize must precede pointer-retyping
# (buffer types are decided there).
ADAPTOR_PASS_ORDER = (
    "intrinsic-legalize",
    "struct-flatten",
    "dce",
    "interface-lowering",
    "gep-canonicalize",
    "pointer-retyping",
    "freeze-elim",
    "attr-scrub",
    "loop-metadata",
    "final-dce",
)

# Passes the strict frontend cannot do without: skipping any of these
# leaves constructs (opaque pointers, struct SSA aggregates, freeze,
# unknown intrinsics) the old fork rejects outright, so recover mode
# refuses to disable them and hard-fails instead.
ESSENTIAL_PASSES = frozenset(
    {
        "intrinsic-legalize",
        "struct-flatten",
        "interface-lowering",
        "gep-canonicalize",
        "pointer-retyping",
        "freeze-elim",
    }
)


def _named_dce(name: str):
    pass_ = DeadCodeElimination()
    pass_.name = name
    return pass_


PASS_FACTORY: Dict[str, Callable[[], ModulePass]] = {
    "intrinsic-legalize": IntrinsicLegalization,
    "struct-flatten": StructFlattening,
    "dce": lambda: _named_dce("dce"),
    "interface-lowering": InterfaceLowering,
    "gep-canonicalize": GEPCanonicalization,
    "pointer-retyping": PointerRetyping,
    "freeze-elim": FreezeElimination,
    "attr-scrub": AttributeScrub,
    "loop-metadata": LoopMetadataLowering,
    "final-dce": lambda: _named_dce("final-dce"),
}


@dataclass
class Degradation:
    """One recovered failure: a non-essential pass that was disabled."""

    pass_name: str
    code: str
    message: str
    reproducer_path: Optional[str] = None


@dataclass
class AdaptorReport:
    """What the adaptor did to one module."""

    module_name: str
    passes: List[PassStatistics] = field(default_factory=list)
    seconds: float = 0.0
    disabled: Sequence[str] = ()
    auto_disabled: Sequence[str] = ()
    degradations: List[Degradation] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    lint: Optional[object] = None  # Optional[repro.lint.LintReport]

    @property
    def total_rewrites(self) -> int:
        return sum(p.rewrites for p in self.passes)

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def rewrites_by_pass(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for p in self.passes:
            out[p.name] = out.get(p.name, 0) + p.rewrites
        return out

    def summary(self) -> str:
        lines = [f"adaptor report for {self.module_name!r} "
                 f"({self.total_rewrites} rewrites, {self.seconds * 1e3:.2f} ms)"]
        for p in self.passes:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(p.details.items()))
            lines.append(
                f"  {p.name:20s} {p.rewrites:5d} {p.seconds * 1e3:8.3f} ms  {detail}"
            )
        if self.lint is not None:
            lines.append(f"  lint: {self.lint.summary()}")
        if self.disabled:
            lines.append(f"  disabled: {', '.join(self.disabled)}")
        if self.auto_disabled:
            lines.append(
                f"  auto-disabled (recovered): {', '.join(self.auto_disabled)}"
            )
        for d in self.degradations:
            where = f" [{d.reproducer_path}]" if d.reproducer_path else ""
            lines.append(f"  degraded: {d.pass_name}: {d.message}{where}")
        return "\n".join(lines)


class HLSAdaptor:
    """The MLIR HLS Adaptor for LLVM IR.

    >>> adaptor = HLSAdaptor()
    >>> report = adaptor.run(module)     # module: modern IR from MLIR lowering
    >>> module.opaque_pointers           # now typed-pointer, HLS-readable
    False

    ``disable`` removes named passes (see :data:`ADAPTOR_PASS_ORDER`) for
    ablation experiments.  ``on_error`` selects the failure policy:
    ``"raise"`` (default) propagates a structured
    :class:`repro.diagnostics.CompilationError`; ``"recover"`` disables the
    failing non-essential pass, reruns from the entry snapshot, and records
    the degradation in the report.  ``instrument`` is a hook
    ``(name, pass) -> pass`` applied to every constructed pass — used by
    :mod:`repro.testing.fault_injection` and handy for profiling wrappers.
    ``lint`` controls the post-adaptor HLS-compatibility gate
    (:mod:`repro.lint`): ``"gate"`` (default) lints the adapted module and
    raises :class:`repro.diagnostics.LintError` on error-severity findings
    — but only for a *clean* run (no passes disabled, none auto-disabled
    by recovery: intentionally-degraded IR is expected to be dirty, and
    the strict frontend remains the arbiter there); ``"report"`` always
    records the verdict in ``AdaptorReport.lint`` without raising;
    ``"off"`` skips linting entirely.
    """

    ON_ERROR_MODES = ("raise", "recover")
    LINT_MODES = ("gate", "report", "off")

    def __init__(
        self,
        disable: Sequence[str] = (),
        on_error: str = "raise",
        reproducer_dir: Optional[str] = None,
        engine: Optional[DiagnosticEngine] = None,
        instrument: Optional[Callable[[str, ModulePass], ModulePass]] = None,
        lint: str = "gate",
        lint_backend: Optional[str] = None,
    ):
        unknown = set(disable) - set(ADAPTOR_PASS_ORDER)
        if unknown:
            raise PipelineConfigError(
                f"unknown adaptor pass(es) {sorted(unknown)}; "
                f"valid: {list(ADAPTOR_PASS_ORDER)}"
            )
        if on_error not in self.ON_ERROR_MODES:
            raise PipelineConfigError(
                f"unknown on_error mode {on_error!r}; "
                f"valid: {list(self.ON_ERROR_MODES)}"
            )
        if lint not in self.LINT_MODES:
            raise PipelineConfigError(
                f"unknown lint mode {lint!r}; valid: {list(self.LINT_MODES)}"
            )
        self.disabled = tuple(disable)
        self.on_error = on_error
        self.reproducer_dir = reproducer_dir
        self.engine = engine or DiagnosticEngine()
        self.instrument = instrument
        self.lint = lint
        # Which synthesis backend the lint verdict should be judged for
        # (rule applicability is per-backend); None = default backend.
        self.lint_backend = lint_backend

    # -- pipeline assembly --------------------------------------------------------
    def _build_pass(self, name: str) -> ModulePass:
        pass_ = PASS_FACTORY[name]()
        if self.instrument is not None:
            pass_ = self.instrument(name, pass_)
        return pass_

    def _make_guard(self) -> Optional[PassGuard]:
        if self.on_error == "recover" or self.reproducer_dir is not None:
            return PassGuard(
                kind="ir",
                reproducer_dir=self.reproducer_dir,
                engine=self.engine,
                pipeline_name="hls-adaptor",
            )
        return None

    def _run_pipeline(self, module: Module, skip: set) -> List[PassStatistics]:
        pm = PassManager(guard=self._make_guard())
        for name in ADAPTOR_PASS_ORDER:
            if name in skip:
                continue
            pm.add(self._build_pass(name))
        return pm.run(module)

    # -- entry point --------------------------------------------------------------
    def run(self, module: Module) -> AdaptorReport:
        """Adapt ``module`` in place; returns the rewrite report."""
        start = time.perf_counter()
        tracer = get_tracer()
        try:
            # Boundary verify: modules fresh from MLIR lowering + cleanup
            # were just verified there, so the duplicate sweep is skipped
            # when the version vector proves nothing changed since.
            verify_module(module, assume_clean=True)
        except VerificationError as exc:
            diag = self.engine.error(
                InputRejectionError.code,
                f"input module {module.name!r} failed verification: {exc}",
            )
            raise InputRejectionError(diag.message, diagnostic=diag) from exc

        skip = set(self.disabled)
        degradations: List[Degradation] = []
        entry_snapshot = (
            ModuleSnapshot(module) if self.on_error == "recover" else None
        )
        with tracer.span(
            "hls-adaptor", category="pipeline", module=module.name
        ) as pipeline_span:
            while True:
                try:
                    stats = self._run_pipeline(module, skip)
                    break
                except PassExecutionError as exc:
                    recoverable = (
                        self.on_error == "recover"
                        and exc.pass_name is not None
                        and exc.pass_name not in ESSENTIAL_PASSES
                        and exc.pass_name not in skip
                    )
                    if not recoverable:
                        raise
                    # Roll all earlier passes back too: the pipeline is
                    # dependency-ordered, so it reruns from the entry state
                    # with the offender gone.
                    assert entry_snapshot is not None
                    entry_snapshot.restore(module)
                    skip.add(exc.pass_name)
                    degradations.append(
                        Degradation(
                            pass_name=exc.pass_name,
                            code=exc.code,
                            message=exc.message,
                            reproducer_path=exc.reproducer_path,
                        )
                    )
                    get_statistics().bump("hls-adaptor", "recovered-passes")
                    self.engine.warning(
                        "REPRO-DEGRADE-001",
                        f"recovered from failing pass {exc.pass_name!r}: "
                        f"disabled it and rerunning the pipeline",
                        pass_name=exc.pass_name,
                    )
            pipeline_span.set(
                rewrites=sum(s.rewrites for s in stats),
                degradations=len(degradations),
            )

        module.source_flow = "mlir-adaptor"
        lint_report = None
        if self.lint != "off":
            lint_report = self._lint(module, skip, degradations)
        report = AdaptorReport(
            module_name=module.name,
            passes=stats,
            seconds=time.perf_counter() - start,
            disabled=self.disabled,
            auto_disabled=tuple(sorted(skip - set(self.disabled))),
            degradations=degradations,
            diagnostics=list(self.engine.diagnostics),
            lint=lint_report,
        )
        return report

    def _lint(self, module: Module, skip: set, degradations: List[Degradation]):
        """Post-adaptor HLS-compatibility verdict (and gate, when armed).

        The gate only raises for a clean full-pipeline run: intentionally
        ablated or degradation-recovered modules are *expected* to violate
        the contract (that is what the ablation measures), so they get a
        recorded verdict instead of an exception.
        """
        # Imported lazily: repro.lint's rules pull adaptor constants
        # (intrinsic whitelist, modern-attribute sets), so a module-level
        # import here would be circular.
        from ..lint import run_lint

        lint_report = run_lint(module, backend=self.lint_backend)
        for finding in lint_report.findings:
            self.engine.warning(
                finding.code,
                finding.message,
                function=finding.function,
                instruction=finding.location,
            )
        gate_armed = self.lint == "gate" and not skip and not degradations
        if gate_armed and lint_report.errors:
            diag = self.engine.error(
                LintError.code,
                f"adapted module {module.name!r} failed the HLS-compatibility "
                f"lint gate: {len(lint_report.errors)} error-severity "
                f"finding(s) [{', '.join(lint_report.codes())}]",
            )
            raise LintError(diag.message, lint_report=lint_report, diagnostic=diag)
        return lint_report
