"""Legalise modern intrinsics for the HLS frontend's old LLVM fork.

The version gap shows up in three intrinsic families:

* **Post-LLVM-12 intrinsics** the fork has never heard of:
  ``llvm.smax/smin/umax/umin`` and ``llvm.abs`` — expanded to the
  ``icmp``+``select`` idiom the old fork produces itself.
* **Opaque-pointer intrinsic namings**: ``llvm.memcpy.p0.p0.i64`` /
  ``llvm.lifetime.start.p0`` — the fork only knows the typed spellings;
  memcpy is expanded to an explicit byte-copy loop (which the HLS memory
  analysis handles better than an opaque intrinsic call anyway) and
  lifetime/assume markers are dropped.
* **Math intrinsics** (``llvm.sqrt.f32`` etc.) predate the fork and pass
  through unchanged.
"""

from __future__ import annotations

from typing import List

from ..hls.frontend import HLS_SUPPORTED_INTRINSIC_PREFIXES
from ..ir.builder import IRBuilder
from ..ir.instructions import Call, Instruction
from ..ir.module import Function
from ..ir.transforms.pass_manager import FunctionPass, PassStatistics
from ..ir.types import IntegerType, i64, i8
from ..ir.values import ConstantInt

__all__ = ["IntrinsicLegalization", "HLS_SUPPORTED_INTRINSIC_PREFIXES"]

_MINMAX = {"llvm.smax": "sgt", "llvm.smin": "slt", "llvm.umax": "ugt", "llvm.umin": "ult"}
_DROPPED_PREFIXES = ("llvm.lifetime.", "llvm.assume", "llvm.dbg.", "llvm.donothing")


class IntrinsicLegalization(FunctionPass):
    name = "intrinsic-legalize"

    def run_on_function(self, fn: Function, stats: PassStatistics) -> None:
        for block in list(fn.blocks):
            for inst in list(block.instructions):
                if isinstance(inst, Call) and inst.is_intrinsic:
                    self._legalize(inst, stats)

    def _legalize(self, inst: Call, stats: PassStatistics) -> None:
        name = inst.callee.name
        base = ".".join(name.split(".")[:2])

        if any(name.startswith(p) for p in _DROPPED_PREFIXES):
            inst.erase_from_parent()
            stats.bump("marker-dropped")
            return

        if base in _MINMAX:
            builder = IRBuilder().position_before(inst)
            lhs, rhs = inst.args
            cmp = builder.icmp(_MINMAX[base], lhs, rhs, "mm.cmp")
            sel = builder.select(cmp, lhs, rhs, "mm.sel")
            inst.replace_all_uses_with(sel)
            inst.erase_from_parent()
            stats.bump("minmax-expanded")
            return

        if base == "llvm.abs":
            builder = IRBuilder().position_before(inst)
            value = inst.args[0]
            zero = ConstantInt(value.type, 0)
            neg = builder.sub(zero, value, "abs.neg")
            cmp = builder.icmp("slt", value, zero, "abs.cmp")
            sel = builder.select(cmp, neg, value, "abs.sel")
            inst.replace_all_uses_with(sel)
            inst.erase_from_parent()
            stats.bump("abs-expanded")
            return

        if name.startswith("llvm.memcpy.p0.p0.") or name.startswith("llvm.memmove.p0.p0."):
            self._expand_memcpy(inst, stats)
            return
        if name.startswith("llvm.memset.p0."):
            self._expand_memset(inst, stats)
            return

        if name.startswith("llvm.expect."):
            inst.replace_all_uses_with(inst.args[0])
            inst.erase_from_parent()
            stats.bump("expect-dropped")
            return

        # Remaining intrinsics are either supported (math family) or will be
        # flagged by the strict frontend — the adaptor does not silently
        # swallow unknowns.

    def _expand_memcpy(self, inst: Call, stats: PassStatistics) -> None:
        """Rewrite the opaque-pointer memcpy into an explicit byte loop.

        Emits the canonical counted-loop shape (preheader/header/body/exit)
        so downstream loop analysis and the HLS scheduler see a normal loop.
        """
        fn = inst.function
        dest, src, length = inst.args[0], inst.args[1], inst.args[2]
        block = inst.parent
        # Split the block at the memcpy.
        idx = block.instructions.index(inst)
        exit_block = fn.add_block("memcpy.exit")
        tail = block.instructions[idx + 1 :]
        del block.instructions[idx + 1 :]
        for moved in tail:
            moved.parent = exit_block
            exit_block.instructions.append(moved)
        # The tail's phi/branch bookkeeping: successors referenced old block;
        # any phi in successors with incoming from `block` must now come from
        # exit_block (the terminator moved there).
        term = exit_block.terminator
        if term is not None and hasattr(term, "successors"):
            for succ in term.successors:
                for phi in succ.phis():
                    for i, (_value, pred) in enumerate(phi.incoming):
                        if pred is block:
                            phi.set_operand(2 * i + 1, exit_block)

        header = fn.add_block("memcpy.header", before=exit_block)
        body = fn.add_block("memcpy.body", before=exit_block)

        builder = IRBuilder(block)
        inst.erase_from_parent()
        builder.br(header)

        builder.position_at_end(header)
        iv = builder.phi(i64, "memcpy.i")
        cond = builder.icmp("slt", iv, length, "memcpy.cmp")
        builder.cond_br(cond, body, exit_block)

        builder.position_at_end(body)
        src_ptr = builder.gep(i8, src, [iv], "memcpy.sp")
        dst_ptr = builder.gep(i8, dest, [iv], "memcpy.dp")
        byte = builder.load(i8, src_ptr, "memcpy.b", align=1)
        builder.store(byte, dst_ptr, align=1)
        next_iv = builder.add(iv, ConstantInt(i64, 1), "memcpy.next", nsw=True)
        builder.br(header)

        iv.add_incoming(ConstantInt(i64, 0), block)
        iv.add_incoming(next_iv, body)
        stats.bump("memcpy-expanded")

    def _expand_memset(self, inst: Call, stats: PassStatistics) -> None:
        fn = inst.function
        dest, value, length = inst.args[0], inst.args[1], inst.args[2]
        block = inst.parent
        idx = block.instructions.index(inst)
        exit_block = fn.add_block("memset.exit")
        tail = block.instructions[idx + 1 :]
        del block.instructions[idx + 1 :]
        for moved in tail:
            moved.parent = exit_block
            exit_block.instructions.append(moved)
        term = exit_block.terminator
        if term is not None and hasattr(term, "successors"):
            for succ in term.successors:
                for phi in succ.phis():
                    for i, (_v, pred) in enumerate(phi.incoming):
                        if pred is block:
                            phi.set_operand(2 * i + 1, exit_block)

        header = fn.add_block("memset.header", before=exit_block)
        body = fn.add_block("memset.body", before=exit_block)

        builder = IRBuilder(block)
        inst.erase_from_parent()
        builder.br(header)

        builder.position_at_end(header)
        iv = builder.phi(i64, "memset.i")
        cond = builder.icmp("slt", iv, length, "memset.cmp")
        builder.cond_br(cond, body, exit_block)

        builder.position_at_end(body)
        dst_ptr = builder.gep(i8, dest, [iv], "memset.dp")
        builder.store(value, dst_ptr, align=1)
        next_iv = builder.add(iv, ConstantInt(i64, 1), "memset.next", nsw=True)
        builder.br(header)

        iv.add_incoming(ConstantInt(i64, 0), block)
        iv.add_incoming(next_iv, body)
        stats.bump("memset-expanded")
