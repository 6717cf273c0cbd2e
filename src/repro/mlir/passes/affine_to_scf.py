"""Lower the affine dialect to scf + arith + memref.

* ``affine.for`` → ``scf.for`` with materialised bound computation
  (multi-result bound maps combine through ``arith.maxsi``/``minsi``).
* ``affine.load``/``affine.store`` → index expression expansion +
  ``memref.load``/``memref.store``.
* ``affine.apply``/``min``/``max`` → arith expression trees.

HLS directive attributes on loops are preserved onto the scf.for.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ...ir.transforms.pass_manager import PassStatistics
from ..affine_expr import (
    AffineBinary,
    AffineConstant,
    AffineDim,
    AffineExpr,
    AffineMap,
    AffineSymbol,
)
from ..core import Block, Operation, Value, index
from ..dialects import arith, memref as memref_dialect, scf
from ..dialects.affine import ForOp
from ..dialects.builtin import ModuleOp
from .pass_manager import MLIRPass

__all__ = ["AffineToSCF", "expand_affine_expr"]


def expand_affine_expr(
    expr: AffineExpr,
    operands: Sequence[Value],
    num_dims: int,
    block: Block,
    before: Operation,
) -> Value:
    """Materialise an affine expression as arith ops inserted before ``before``."""

    def emit(op: Operation) -> Value:
        block.insert_before(before, op)
        return op.results[0]

    def walk(e: AffineExpr) -> Value:
        if isinstance(e, AffineConstant):
            return emit(arith.constant(e.value, index))
        if isinstance(e, AffineDim):
            return operands[e.index]
        if isinstance(e, AffineSymbol):
            return operands[num_dims + e.index]
        if isinstance(e, AffineBinary):
            lhs = walk(e.lhs)
            rhs = walk(e.rhs)
            if e.kind == "mod":
                # remsi takes the dividend's sign; affine mod is never negative.
                rem = emit(arith.remsi(lhs, rhs))
                negative = emit(arith.cmpi("slt", rem, emit(arith.constant(0, index))))
                return emit(arith.select(negative, emit(arith.addi(rem, rhs)), rem))
            ctor = {
                "+": arith.addi,
                "-": arith.subi,
                "*": arith.muli,
                "floordiv": arith.floordivsi,
            }[e.kind]
            return emit(ctor(lhs, rhs))
        raise TypeError(f"unknown affine expr {e!r}")

    return walk(expr)


def _expand_map(
    amap: AffineMap, operands: Sequence[Value], block: Block, before: Operation
) -> List[Value]:
    return [
        expand_affine_expr(r, operands, amap.num_dims, block, before)
        for r in amap.results
    ]


def _combine(values: List[Value], kind: str, block: Block, before: Operation) -> Value:
    result = values[0]
    ctor = arith.maxsi if kind == "max" else arith.minsi
    for value in values[1:]:
        op = ctor(result, value)
        block.insert_before(before, op)
        result = op.result
    return result


class AffineToSCF(MLIRPass):
    name = "affine-to-scf"

    def run_on_module(self, module: ModuleOp, stats: PassStatistics) -> None:
        # Innermost-first so bodies are already affine-free when moved.
        all_ops = list(module.walk())
        for op in reversed(all_ops):
            if op.parent is None:
                continue
            if op.name == "affine.for":
                self._lower_for(op, stats)
            elif op.name == "affine.load":
                self._lower_load(op, stats)
            elif op.name == "affine.store":
                self._lower_store(op, stats)
            elif op.name == "affine.apply":
                self._lower_apply(op, stats)
            elif op.name in ("affine.min", "affine.max"):
                self._lower_minmax(op, stats)

    def _lower_for(self, op: Operation, stats: PassStatistics) -> None:
        loop = ForOp(op)
        block = op.parent
        lower_values = _expand_map(loop.lower_map, list(loop.lower_operands), block, op)
        lower = _combine(lower_values, "max", block, op)
        upper_values = _expand_map(loop.upper_map, list(loop.upper_operands), block, op)
        upper = _combine(upper_values, "min", block, op)
        step_const = arith.constant(loop.step, index)
        block.insert_before(op, step_const)

        new_loop = scf.for_(lower, upper, step_const.result, list(loop.iter_init_operands))
        for key, attr in op.attributes.items():
            if key not in ("lower_map", "upper_map", "step", "lower_count", "upper_count"):
                new_loop.op.set_attr(key, attr)
        block.insert_before(op, new_loop.op)

        # Move body ops across, remapping block arguments.
        old_body = loop.body
        new_body = new_loop.body
        for old_arg, new_arg in zip(old_body.arguments, new_body.arguments):
            old_arg.replace_all_uses_with(new_arg)
        for inner in list(old_body.operations):
            inner.remove_from_parent()
            if inner.name == "affine.yield":
                yield_op = scf.yield_(list(inner.operands))
                inner.drop_all_operands()
                new_body.append(yield_op)
            else:
                new_body.append(inner)

        op.replace_all_uses_with(list(new_loop.results))
        op.erase()
        stats.bump("for-lowered")

    def _lower_load(self, op: Operation, stats: PassStatistics) -> None:
        amap: AffineMap = op.get_attr("map").map  # type: ignore[union-attr]
        block = op.parent
        indices = _expand_map(amap, list(op.operands[1:]), block, op)
        new_load = memref_dialect.load(op.get_operand(0), indices)
        block.insert_before(op, new_load)
        op.replace_all_uses_with([new_load.result])
        op.erase()
        stats.bump("load-lowered")

    def _lower_store(self, op: Operation, stats: PassStatistics) -> None:
        amap: AffineMap = op.get_attr("map").map  # type: ignore[union-attr]
        block = op.parent
        indices = _expand_map(amap, list(op.operands[2:]), block, op)
        new_store = memref_dialect.store(op.get_operand(0), op.get_operand(1), indices)
        block.insert_before(op, new_store)
        op.erase()
        stats.bump("store-lowered")

    def _lower_apply(self, op: Operation, stats: PassStatistics) -> None:
        amap: AffineMap = op.get_attr("map").map  # type: ignore[union-attr]
        block = op.parent
        value = expand_affine_expr(
            amap.results[0], list(op.operands), amap.num_dims, block, op
        )
        op.replace_all_uses_with([value])
        op.erase()
        stats.bump("apply-lowered")

    def _lower_minmax(self, op: Operation, stats: PassStatistics) -> None:
        amap: AffineMap = op.get_attr("map").map  # type: ignore[union-attr]
        block = op.parent
        values = _expand_map(amap, list(op.operands), block, op)
        kind = "min" if op.name == "affine.min" else "max"
        value = _combine(values, kind, block, op)
        op.replace_all_uses_with([value])
        op.erase()
        stats.bump("minmax-lowered")
