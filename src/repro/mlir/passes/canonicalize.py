"""Canonicalisation: arith constant folding, identity simplification, and
dead pure-op elimination at the MLIR level."""

from __future__ import annotations

from typing import Optional

from ...ir.transforms.pass_manager import PassStatistics
from ..core import FloatAttr, IntegerAttr, Operation, Value
from ..dialects import arith
from ..dialects.builtin import ModuleOp
from .pass_manager import MLIRPass

__all__ = ["Canonicalize"]

_PURE_DIALECTS = ("arith", "math", "affine")
_PURE_EXCEPTIONS = {"affine.store", "affine.for", "affine.yield"}


def _const_of(value: Value) -> Optional[object]:
    owner = value.owner
    if isinstance(owner, Operation) and owner.name == "arith.constant":
        attr = owner.get_attr("value")
        if isinstance(attr, IntegerAttr):
            return attr.value
        if isinstance(attr, FloatAttr):
            return attr.value
    return None


_INT_FOLDS = {
    "arith.addi": lambda l, r: l + r,
    "arith.subi": lambda l, r: l - r,
    "arith.muli": lambda l, r: l * r,
    "arith.maxsi": max,
    "arith.minsi": min,
}
_FLOAT_FOLDS = {
    "arith.addf": lambda l, r: l + r,
    "arith.subf": lambda l, r: l - r,
    "arith.mulf": lambda l, r: l * r,
}


class Canonicalize(MLIRPass):
    name = "canonicalize"

    def run_on_module(self, module: ModuleOp, stats: PassStatistics) -> None:
        changed = True
        while changed:
            changed = False
            for op in list(module.walk()):
                if op.parent is None:
                    continue  # already erased
                if self._fold(op, stats):
                    changed = True
                    continue
                if self._erase_if_dead(op, stats):
                    changed = True

    def _fold(self, op: Operation, stats: PassStatistics) -> bool:
        if op.name in _INT_FOLDS and len(op.results) == 1:
            l = _const_of(op.get_operand(0))
            r = _const_of(op.get_operand(1))
            if isinstance(l, int) and isinstance(r, int):
                const = arith.constant(_INT_FOLDS[op.name](l, r), op.results[0].type)
                op.parent.insert_before(op, const)
                op.replace_all_uses_with([const.result])
                op.erase()
                stats.bump("int-folded")
                return True
            # x + 0, x * 1, x * 0, x - 0
            if op.name == "arith.addi" and (r == 0 or l == 0):
                keep = op.get_operand(0) if r == 0 else op.get_operand(1)
                op.replace_all_uses_with([keep])
                op.erase()
                stats.bump("identity")
                return True
            if op.name == "arith.subi" and r == 0:
                op.replace_all_uses_with([op.get_operand(0)])
                op.erase()
                stats.bump("identity")
                return True
            if op.name == "arith.muli" and (r == 1 or l == 1):
                keep = op.get_operand(0) if r == 1 else op.get_operand(1)
                op.replace_all_uses_with([keep])
                op.erase()
                stats.bump("identity")
                return True
        if op.name in _FLOAT_FOLDS and len(op.results) == 1:
            l = _const_of(op.get_operand(0))
            r = _const_of(op.get_operand(1))
            if isinstance(l, float) and isinstance(r, float):
                const = arith.constant(
                    _FLOAT_FOLDS[op.name](l, r), op.results[0].type
                )
                op.parent.insert_before(op, const)
                op.replace_all_uses_with([const.result])
                op.erase()
                stats.bump("float-folded")
                return True
        return False

    def _erase_if_dead(self, op: Operation, stats: PassStatistics) -> bool:
        if op.is_used or not op.results:
            return False
        if op.regions or op.successors:
            return False
        if op.dialect not in _PURE_DIALECTS or op.name in _PURE_EXCEPTIONS:
            return False
        if op.name in ("affine.load",):
            pass  # loads are pure; dead loads can go
        op.erase()
        stats.bump("dead-op")
        return True
