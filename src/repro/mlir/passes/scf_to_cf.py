"""Lower scf.for / scf.if to cf-level multi-block CFG inside func bodies.

The generated shape for a loop mirrors MLIR's SCFToControlFlow:

    <before>                 cf.br ^header(lower, inits...)
    ^header(iv, carried...): cmp = arith.cmpi slt iv, upper
                             cf.cond_br cmp, ^body(iv, carried...), ^after(carried...)
    ^body(iv, carried...):   ...body...; next = iv + step
                             cf.br ^header(next, yielded...)   <- carries HLS attrs
    ^after(results...):      <rest>

The back-edge branch inherits the loop's ``hls.*`` directive attributes; the
LLVM conversion turns them into modern ``!llvm.loop`` metadata.
"""

from __future__ import annotations

from typing import List, Optional

from ...ir.transforms.pass_manager import PassStatistics
from ..core import Block, Operation, Region, Value, index
from ..dialects import arith, cf
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..dialects.scf import ForOp, IfOp
from .pass_manager import MLIRPass

__all__ = ["SCFToCF"]


def _split_block(region: Region, block: Block, at: Operation, arg_types) -> Block:
    """Move ops after ``at`` (exclusive) into a fresh block with ``arg_types``."""
    idx = block.operations.index(at)
    after = Block(arg_types)
    region.blocks.insert(region.blocks.index(block) + 1, after)
    after.parent = region
    tail = block.operations[idx + 1 :]
    del block.operations[idx + 1 :]
    for op in tail:
        op.parent = after
        after.operations.append(op)
    return after


def _inline_region_blocks(region: Region, target_region: Region, after_block: Block) -> List[Block]:
    """Move all blocks of ``region`` into ``target_region`` before ``after_block``."""
    insert_at = target_region.blocks.index(after_block)
    moved = list(region.blocks)
    region.blocks.clear()
    for i, block in enumerate(moved):
        block.parent = target_region
        target_region.blocks.insert(insert_at + i, block)
    return moved


class SCFToCF(MLIRPass):
    name = "scf-to-cf"

    def run_on_module(self, module: ModuleOp, stats: PassStatistics) -> None:
        for fn_op in module.functions():
            fn = FuncOp(fn_op)
            if fn.is_declaration:
                continue
            while self._lower_one(fn, stats):
                pass

    def _find_scf_op(self, fn: FuncOp) -> Optional[Operation]:
        """First scf op whose region contains no other scf op (innermost)."""
        candidates = []
        for block in fn.body.blocks:
            for op in block.operations:
                if op.name in ("scf.for", "scf.if"):
                    candidates.append(op)
        for op in candidates:
            inner = [
                o
                for o in op.walk()
                if o is not op and o.name in ("scf.for", "scf.if")
            ]
            if not inner:
                return op
        return candidates[0] if candidates else None

    def _lower_one(self, fn: FuncOp, stats: PassStatistics) -> bool:
        # Lower outermost-region-first is unnecessary; the splice logic
        # handles nested multi-block regions, so pick any scf op that has
        # structured (single-block) regions — i.e. lower innermost first.
        op = self._find_scf_op(fn)
        if op is None:
            return False
        if op.name == "scf.for":
            self._lower_for(fn, op, stats)
        else:
            self._lower_if(fn, op, stats)
        return True

    def _lower_for(self, fn: FuncOp, op: Operation, stats: PassStatistics) -> None:
        loop = ForOp(op)
        region = op.parent.parent
        block = op.parent
        lower, upper, step = loop.lower, loop.upper, loop.step
        inits = list(loop.iter_init_operands)
        iter_types = [v.type for v in inits]

        after = _split_block(region, block, op, [r.type for r in op.results])
        op.replace_all_uses_with(list(after.arguments))

        header = Block([index, *iter_types])
        region.blocks.insert(region.blocks.index(block) + 1, header)
        header.parent = region
        iv = header.arguments[0]
        carried = list(header.arguments[1:])

        # Inline body blocks between header and after.
        body_blocks = _inline_region_blocks(op.regions[0], region, after)
        body_entry = body_blocks[0]

        # Rewrite scf.yield terminators into back-edges.
        for body_block in body_blocks:
            term = body_block.terminator
            if term is not None and term.name == "scf.yield":
                yielded = list(term.operands)
                next_iv_op = arith.addi(body_entry.arguments[0], step)
                body_block.insert_before(term, next_iv_op)
                latch = cf.br(header, [next_iv_op.result, *yielded])
                for key, attr in op.attributes.items():
                    if key.startswith("hls."):
                        latch.set_attr(key, attr)
                term.drop_all_operands()
                body_block.operations.remove(term)
                body_block.append(latch)

        # block -> header -> (cond) -> body/after
        block.append(cf.br(header, [lower, *inits]))
        cmp = arith.cmpi("slt", iv, upper)
        header.append(cmp)
        header.append(
            cf.cond_br(cmp.result, body_entry, [iv, *carried], after, carried)
        )
        op.erase()
        stats.bump("for-lowered")

    def _lower_if(self, fn: FuncOp, op: Operation, stats: PassStatistics) -> None:
        if_op = IfOp(op)
        region = op.parent.parent
        block = op.parent
        cond = if_op.condition
        after = _split_block(region, block, op, [r.type for r in op.results])
        op.replace_all_uses_with(list(after.arguments))

        then_blocks = _inline_region_blocks(op.regions[0], region, after)
        else_blocks: List[Block] = []
        if op.regions[1].blocks:
            else_blocks = _inline_region_blocks(op.regions[1], region, after)

        for group in (then_blocks, else_blocks):
            for inner in group:
                term = inner.terminator
                if term is not None and term.name == "scf.yield":
                    yielded = list(term.operands)
                    jump = cf.br(after, yielded)
                    term.drop_all_operands()
                    inner.operations.remove(term)
                    inner.append(jump)

        false_dest = else_blocks[0] if else_blocks else after
        block.append(cf.cond_br(cond, then_blocks[0], [], false_dest, []))
        op.erase()
        stats.bump("if-lowered")
