"""Pass manager for mini-MLIR modules.

:class:`repro.ir.transforms.PassManager` runs the passes: per-pass stats,
structured failures, one verify after the last pass when unguarded and
after every pass under a :class:`repro.diagnostics.PassGuard` (kind
``"mlir"``).  This subclass supplies only the structured MLIR verifier.
Instruction-churn counters count ``repro.ir`` instructions, so an MLIR
run records rewrites and details only.
"""

from __future__ import annotations

from ...ir.transforms.pass_manager import ModulePass, PassManager
from ..dialects.builtin import ModuleOp
from ..verifier import verify_module

__all__ = ["MLIRPass", "MLIRPassManager"]


class MLIRPass(ModulePass):
    name = "<mlir-pass>"


class MLIRPassManager(PassManager):
    level = "MLIR"
    count_churn = False

    def verify(self, module: ModuleOp) -> None:
        verify_module(module)
