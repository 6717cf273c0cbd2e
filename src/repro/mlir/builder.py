"""OpBuilder: insertion-point-based construction of mini-MLIR, including
structured-loop helpers that keep bodies properly terminated."""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence, Union

from .affine_expr import AffineExpr, AffineMap
from .core import Block, MLIRType, Operation, Value, index
from .dialects import affine, arith, func, memref, scf

__all__ = ["OpBuilder"]


class OpBuilder:
    def __init__(self, block: Optional[Block] = None):
        self.block = block
        self._before: Optional[Operation] = None

    # -- positioning ---------------------------------------------------------
    def position_at_end(self, block: Block) -> "OpBuilder":
        self.block = block
        self._before = None
        return self

    def position_before(self, op: Operation) -> "OpBuilder":
        self.block = op.parent
        self._before = op
        return self

    @contextmanager
    def at_end(self, block: Block):
        saved_block, saved_before = self.block, self._before
        self.position_at_end(block)
        try:
            yield self
        finally:
            self.block, self._before = saved_block, saved_before

    def insert(self, op_or_wrapper):
        """Insert an Operation (or a dialect wrapper exposing ``.op``)."""
        op = op_or_wrapper.op if hasattr(op_or_wrapper, "op") else op_or_wrapper
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        if self._before is not None:
            self.block.insert_before(self._before, op)
        else:
            self.block.append(op)
        return op_or_wrapper

    # -- common constants ------------------------------------------------------
    def const_index(self, value: int) -> Value:
        return self.insert(arith.constant(value, index)).result

    def const_int(self, value: int, type: MLIRType) -> Value:
        return self.insert(arith.constant(value, type)).result

    def const_float(self, value: float, type: MLIRType) -> Value:
        return self.insert(arith.constant(value, type)).result

    # -- structured loops ----------------------------------------------------------
    def affine_for(
        self,
        lower: Union[int, AffineExpr, AffineMap],
        upper: Union[int, AffineExpr, AffineMap],
        step: int = 1,
        lower_operands: Sequence[Value] = (),
        upper_operands: Sequence[Value] = (),
        iter_inits: Sequence[Value] = (),
    ) -> affine.ForOp:
        loop = affine.for_(
            lower, upper, step, lower_operands, upper_operands, iter_inits
        )
        self.insert(loop.op)
        return loop

    @contextmanager
    def inside(self, loop):
        """Enter a loop body; on exit, append a terminator if missing."""
        with self.at_end(loop.body):
            yield loop
            term = loop.body.terminator
            if term is None or term.name not in ("affine.yield", "scf.yield"):
                kind = "affine" if loop.op.name == "affine.for" else "scf"
                self.insert(
                    affine.yield_() if kind == "affine" else scf.yield_()
                )
