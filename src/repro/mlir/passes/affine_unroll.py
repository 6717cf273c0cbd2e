"""Structural loop unrolling on ``affine.for`` (ScaleHLS-style).

Loops tagged ``hls.unroll = F`` are partially unrolled by factor F (with a
fully-unrolled epilogue when F does not divide the trip count); loops tagged
``hls.unroll_full`` are fully unrolled.  Only constant-bound loops are
transformed — bound-dependent loops keep their directive and the HLS engine
applies it as a performance-model directive instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...ir.transforms.pass_manager import PassStatistics
from ..affine_expr import AffineDim
from ..core import Block, Operation, Value, index
from ..dialects import arith
from ..dialects.affine import ForOp, for_
from ..dialects.builtin import ModuleOp
from .pass_manager import MLIRPass

__all__ = ["AffineUnroll", "unroll_loop"]


def _clone_body_into(
    body: Block,
    target_block: Block,
    before: Optional[Operation],
    iv_value: Value,
    carried: Sequence[Value],
) -> List[Value]:
    """Clone one loop-body iteration; returns the mapped yield operands."""
    vmap: Dict[int, Value] = {id(body.arguments[0]): iv_value}
    for arg, value in zip(body.arguments[1:], carried):
        vmap[id(arg)] = value
    yielded: List[Value] = []
    for op in body.operations:
        if op.name == "affine.yield":
            yielded = [vmap.get(id(v), v) for v in op.operands]
            continue
        clone = op.clone(vmap)
        if before is not None:
            target_block.insert_before(before, clone)
        else:
            target_block.append(clone)
    return yielded


def unroll_loop(loop: ForOp, factor: Optional[int], stats: Optional[PassStatistics] = None) -> bool:
    """Unroll ``loop`` by ``factor`` (None = full).  Returns True on change."""
    bounds = loop.constant_bounds()
    if bounds is None:
        return False
    lo, hi = bounds
    step = loop.step
    trip = max(0, (hi - lo + step - 1) // step)
    op = loop.op
    parent = op.parent
    if parent is None:
        return False

    full = factor is None or factor >= trip
    if full:
        carried = list(loop.iter_init_operands)
        for i in range(trip):
            iv_const = arith.constant(lo + i * step, index)
            parent.insert_before(op, iv_const)
            carried = _clone_body_into(loop.body, parent, op, iv_const.result, carried)
        op.replace_all_uses_with(carried)
        op.erase()
        if stats:
            stats.bump("full-unrolled")
        return True

    if factor <= 1:
        return False
    main_trip = (trip // factor) * factor
    main_hi = lo + main_trip * step

    # Main loop: step scaled by factor, body replicated with offset IVs.
    new_loop = for_(lo, main_hi, step * factor, iter_inits=list(loop.iter_init_operands))
    # Preserve the loop's other attributes (pipeline etc.), drop the unroll tag.
    for key, attr in op.attributes.items():
        if key not in ("lower_map", "upper_map", "step", "lower_count",
                       "upper_count", "hls.unroll", "hls.unroll_full"):
            new_loop.op.set_attr(key, attr)
    parent.insert_before(op, new_loop.op)
    inner_carried: List[Value] = list(new_loop.iter_args)
    base_iv = new_loop.induction_variable
    for k in range(factor):
        if k == 0:
            iv_value = base_iv
        else:
            from ..dialects.affine import apply as affine_apply

            offset = affine_apply(AffineDim(0) + k * step, [base_iv])
            new_loop.body.append(offset)
            iv_value = offset.result
        inner_carried = _clone_body_into(
            loop.body, new_loop.body, None, iv_value, inner_carried
        )
    from ..dialects.affine import yield_ as affine_yield

    new_loop.body.append(affine_yield(inner_carried))

    # Epilogue: remaining iterations, fully unrolled.
    carried: List[Value] = list(new_loop.results)
    for i in range(main_trip, trip):
        iv_const = arith.constant(lo + i * step, index)
        parent.insert_before(op, iv_const)
        carried = _clone_body_into(loop.body, parent, op, iv_const.result, carried)

    op.replace_all_uses_with(carried)
    op.erase()
    if stats:
        stats.bump("partial-unrolled")
    return True


class AffineUnroll(MLIRPass):
    """Apply ``hls.unroll`` / ``hls.unroll_full`` directives structurally."""

    name = "affine-unroll"

    def run_on_module(self, module: ModuleOp, stats: PassStatistics) -> None:
        changed = True
        while changed:
            changed = False
            for op in list(module.walk()):
                if op.name != "affine.for" or op.parent is None:
                    continue
                loop = ForOp(op)
                if op.has_attr("hls.unroll_full"):
                    if unroll_loop(loop, None, stats):
                        changed = True
                        break
                elif op.has_attr("hls.unroll"):
                    factor = op.get_attr("hls.unroll").value  # type: ignore[union-attr]
                    if unroll_loop(loop, factor, stats):
                        changed = True
                        break
