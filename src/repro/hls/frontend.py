"""The strict HLS IR frontend — the model of the Vitis HLS LLVM fork's
ingestion layer, and the reason the paper's adaptor exists.

The fork is generations behind upstream LLVM: it predates opaque pointers,
``freeze``, ``poison``, and the post-12 intrinsic families, and its memory
analysis refuses descriptor-style aggregate SSA.  ``HLSFrontend.check``
reproduces those rejections; modules straight out of MLIR lowering fail,
adapted modules pass.

Loop metadata in the *modern* spelling is not a hard error — mirroring how
an old LLVM silently drops unknown ``!llvm.loop`` strings — but it is
reported as a dropped-directive diagnostic, and the scheduler will not see
those directives (the performance consequence ablation A measures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..diagnostics.errors import CompilationError
from ..ir.instructions import Call, ExtractValue, Freeze, InsertValue, Instruction
from ..ir.metadata import decode_loop_directives
from ..ir.module import Function, Module
from ..ir.types import StructType
from ..ir.values import PoisonValue

__all__ = [
    "HLSFrontend",
    "FrontendError",
    "FrontendDiagnostics",
    "HLS_SUPPORTED_INTRINSIC_PREFIXES",
]

# Intrinsics the old fork knows (typed-pointer spellings only).  The
# adaptor legalises everything else away and lint enforces the same list.
HLS_SUPPORTED_INTRINSIC_PREFIXES = (
    "llvm.sqrt.",
    "llvm.fabs.",
    "llvm.pow.",
    "llvm.exp.",
    "llvm.log.",
    "llvm.sin.",
    "llvm.cos.",
    "llvm.floor.",
    "llvm.ceil.",
    "llvm.fma.",
    "llvm.fmuladd.",  # present since LLVM 3.2
    "llvm.maxnum.",
    "llvm.minnum.",
    "llvm.copysign.",
    "llvm.memcpy.p0i8.p0i8.",  # typed-pointer spelling only
    "llvm.memset.p0i8.",
)
_SUPPORTED_EXTERNALS = {
    "sqrt", "sqrtf", "fabs", "fabsf", "exp", "expf", "log", "logf",
    "sin", "sinf", "cos", "cosf", "pow", "powf", "floor", "floorf",
    "ceil", "ceilf",
}


class FrontendError(CompilationError):
    """Raised in strict mode when the module is not HLS-readable
    (code ``REPRO-FRONTEND-001``)."""

    code = "REPRO-FRONTEND-001"

    def __init__(self, errors: List[str]):
        super().__init__(
            "module rejected by HLS frontend:\n" + "\n".join(f"  - {e}" for e in errors)
        )
        self.errors = errors


@dataclass
class FrontendDiagnostics:
    """Outcome of one ingestion check."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    dropped_directives: int = 0

    @property
    def accepted(self) -> bool:
        return not self.errors


class HLSFrontend:
    """Ingestion checker for the old-fork dialect.

    ``strict=True`` (default) raises :class:`FrontendError` on rejection;
    ``strict=False`` returns diagnostics only (useful for reporting what an
    unadapted module would trip over).
    """

    def __init__(self, strict: bool = True):
        self.strict = strict

    def check(self, module: Module) -> FrontendDiagnostics:
        diag = FrontendDiagnostics()
        if module.opaque_pointers:
            diag.errors.append(
                "opaque pointers ('ptr') are not understood by the HLS "
                "frontend's LLVM fork (typed pointers required)"
            )
        for fn in module.defined_functions():
            self._check_function(fn, diag)
        for decl in module.declarations():
            self._check_declaration(decl, diag)
        if self.strict and diag.errors:
            raise FrontendError(diag.errors)
        return diag

    # -- per-entity checks ---------------------------------------------------
    def _check_function(self, fn: Function, diag: FrontendDiagnostics) -> None:
        where = f"@{fn.name}"
        for arg in fn.arguments:
            if arg.type.is_opaque_pointer:
                diag.errors.append(f"{where}: argument %{arg.name} has opaque pointer type")
        for block in fn.blocks:
            for inst in block.instructions:
                self._check_instruction(fn, inst, diag)

    def _check_instruction(
        self, fn: Function, inst: Instruction, diag: FrontendDiagnostics
    ) -> None:
        where = f"@{fn.name}"
        if isinstance(inst, Freeze):
            diag.errors.append(
                f"{where}: 'freeze' instruction (LLVM >= 10) is not supported"
            )
        if isinstance(inst, (InsertValue, ExtractValue)) and isinstance(
            (inst.type if isinstance(inst, ExtractValue) else inst.aggregate.type),
            StructType,
        ):
            diag.errors.append(
                f"{where}: struct-typed SSA aggregate ({inst.opcode}) — the HLS "
                f"memory analysis cannot model memref descriptors"
            )
        if inst.type.is_opaque_pointer:
            diag.errors.append(
                f"{where}: instruction {inst.ref()} produces an opaque pointer"
            )
        for op in inst.operands:
            if isinstance(op, PoisonValue):
                diag.errors.append(
                    f"{where}: 'poison' constant (LLVM >= 12) is not supported"
                )
        if isinstance(inst, Call) and inst.is_intrinsic:
            name = inst.callee.name
            if not any(name.startswith(p) for p in HLS_SUPPORTED_INTRINSIC_PREFIXES):
                diag.errors.append(
                    f"{where}: unknown intrinsic @{name} (not in the old fork)"
                )
        node = inst.metadata.get("llvm.loop")
        if node is not None:
            _directives, dialects = decode_loop_directives(node)
            if "modern" in dialects:
                diag.warnings.append(
                    f"{where}: modern !llvm.loop spelling ignored — directives dropped"
                )
                diag.dropped_directives += 1

    def _check_declaration(self, fn: Function, diag: FrontendDiagnostics) -> None:
        name = fn.name
        if name.startswith("llvm."):
            if not any(name.startswith(p) for p in HLS_SUPPORTED_INTRINSIC_PREFIXES):
                diag.errors.append(f"declaration of unknown intrinsic @{name}")
        elif name not in _SUPPORTED_EXTERNALS:
            diag.warnings.append(
                f"external @{name} will be treated as a black-box RTL module"
            )
