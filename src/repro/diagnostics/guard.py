"""The pass guard: snapshot, rollback, and reproducer emission.

A guard attaches to a pass manager.  Before each pass it snapshots the
module (printed text + side tables); if the pass raises or the post-pass
verifier rejects the result, the manager asks the guard to roll the module
back to the snapshot and write a :class:`CrashReproducer` so the failure is
replayable offline with :func:`repro.diagnostics.replay`.
"""

from __future__ import annotations

from typing import List, NoReturn, Optional

from .engine import Diagnostic, DiagnosticEngine, Severity
from .reproducer import CrashReproducer, emit_reproducer

__all__ = ["PassGuard", "raise_pass_failure"]


class PassGuard:
    """Snapshot/rollback/reproducer policy for one pass-manager run.

    ``kind`` selects the snapshot implementation: ``"ir"`` uses
    :class:`repro.ir.snapshot.ModuleSnapshot`, ``"mlir"`` uses
    :class:`repro.mlir.snapshot.MLIRModuleSnapshot`.
    """

    def __init__(
        self,
        kind: str = "ir",
        reproducer_dir: Optional[str] = None,
        engine: Optional[DiagnosticEngine] = None,
        pipeline_name: str = "",
    ):
        if kind not in ("ir", "mlir"):
            raise ValueError(f"unknown guard kind {kind!r}; want 'ir' or 'mlir'")
        self.kind = kind
        self.reproducer_dir = reproducer_dir
        self.engine = engine
        self.pipeline_name = pipeline_name

    def snapshot(self, module):
        if self.kind == "ir":
            from ..ir.snapshot import ModuleSnapshot

            return ModuleSnapshot(module)
        from ..mlir.snapshot import MLIRModuleSnapshot

        return MLIRModuleSnapshot(module)

    def failure(
        self,
        module,
        snapshot,
        pipeline_tail: List[str],
        diagnostic: Diagnostic,
    ) -> str:
        """Roll ``module`` back and emit a crash reproducer; returns its path."""
        snapshot.restore(module)
        reproducer = CrashReproducer(
            kind=self.kind,
            pipeline=list(pipeline_tail),
            failing_pass=pipeline_tail[0] if pipeline_tail else "",
            diagnostic=diagnostic,
            module_text=snapshot.text,
            function_info=snapshot.function_info(),
        )
        path = emit_reproducer(reproducer, self.reproducer_dir)
        diagnostic.notes.append(f"crash reproducer written to {path}")
        if self.engine is not None:
            self.engine.emit(diagnostic)
        return path


def raise_pass_failure(
    error_cls,
    guard: Optional[PassGuard],
    module,
    snapshot,
    pipeline_tail: List[str],
    message: str,
    cause: Exception,
) -> NoReturn:
    """Raise ``error_cls`` for the pass ``pipeline_tail[0]`` of an IR or
    MLIR pass manager.

    With a ``guard`` and a pre-pass ``snapshot``, the module is first rolled
    back and a crash reproducer written; its path rides on the error.
    """
    diagnostic = Diagnostic(
        severity=Severity.ERROR,
        code=error_cls.code,
        message=message,
        pass_name=pipeline_tail[0],
    )
    path = None
    if guard is not None and snapshot is not None:
        path = guard.failure(module, snapshot, pipeline_tail, diagnostic)
    raise error_cls(
        message,
        pass_name=pipeline_tail[0],
        diagnostic=diagnostic,
        reproducer_path=path,
    ) from cause
