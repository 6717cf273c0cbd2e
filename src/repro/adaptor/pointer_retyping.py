"""Opaque-pointer → typed-pointer reconstruction.

The headline version gap: modern LLVM (≥ 15) uses a single opaque ``ptr``
type, while the HLS frontend's old fork requires every pointer to carry its
pointee type.  This pass infers a pointee for every pointer-typed value —
from the adaptor's buffer-type decisions for arguments, from
``source_type`` for GEPs, from ``allocated_type`` for allocas, and from
load/store element types as a fallback — rewrites the types in place, and
flips the module into typed-pointer mode.

Inference never needs to guess for IR coming out of our MLIR lowering plus
the preceding adaptor passes; a genuinely untypeable pointer falls back to
``i8*`` (matching what old IR producers emitted for raw memory).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.instructions import (
    Alloca,
    Cast,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from ..ir.module import Function, Module
from ..ir.transforms.pass_manager import ModulePass, PassStatistics
from ..ir.types import FunctionType, PointerType, Type, i8
from ..ir.values import Argument, Value

__all__ = ["PointerRetyping"]


class PointerRetyping(ModulePass):
    name = "pointer-retyping"

    def run_on_module(self, module: Module, stats: PassStatistics) -> None:
        for fn in module.defined_functions():
            self._retype_function(fn, stats)
        module.opaque_pointers = False

    def _retype_function(self, fn: Function, stats: PassStatistics) -> None:
        # Arguments first: buffer types decided by GEP canonicalisation win.
        for arg in fn.arguments:
            if not arg.type.is_opaque_pointer:
                continue
            pointee = fn.hls_buffer_types.get(arg.name) or self._infer_from_uses(arg)
            arg.type = PointerType(pointee or i8, arg.type.addrspace)
            stats.bump("arg-retyped")
        fn.function_type = FunctionType(
            fn.function_type.return_type,
            [a.type for a in fn.arguments],
            fn.function_type.vararg,
        )

        # Instructions in program order; defs dominate uses, so operand types
        # are already concrete when a user is visited (except phis, fixed in
        # a second pass).
        for block in fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, Alloca) and inst.type.is_opaque_pointer:
                    inst.type = PointerType(inst.allocated_type)
                    stats.bump("alloca-retyped")
                elif isinstance(inst, GetElementPtr) and inst.type.is_opaque_pointer:
                    inst.type = PointerType(inst.result_pointee_type())
                    stats.bump("gep-retyped")
                elif isinstance(inst, Cast) and inst.opcode == "bitcast":
                    if inst.type.is_opaque_pointer:
                        inst.type = inst.value.type
                        stats.bump("bitcast-retyped")
                elif isinstance(inst, (Load, Select)) and inst.type.is_opaque_pointer:
                    inferred = self._infer_from_uses(inst)
                    inst.type = PointerType(inferred or i8)
                    stats.bump("value-retyped")

        # Phis of pointer type take the type of their first typed incoming.
        for block in fn.blocks:
            for phi in block.phis():
                if phi.type.is_opaque_pointer:
                    for value, _pred in phi.incoming:
                        if value.type.is_typed_pointer:
                            phi.type = value.type
                            stats.bump("phi-retyped")
                            break
                    else:
                        phi.type = PointerType(i8)

    def _infer_from_uses(self, value: Value) -> Optional[Type]:
        gep_type: Optional[Type] = None
        scalar_type: Optional[Type] = None
        for use in value.uses:
            user = use.user
            if isinstance(user, GetElementPtr) and user.pointer is value:
                if gep_type is None:
                    gep_type = user.source_type
            elif isinstance(user, Load) and user.pointer is value:
                if scalar_type is None:
                    scalar_type = user.type
            elif isinstance(user, Store) and user.pointer is value:
                if scalar_type is None:
                    scalar_type = user.value.type
        return gep_type or scalar_type
