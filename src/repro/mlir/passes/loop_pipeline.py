"""Directive passes: loop pipelining annotation (ScaleHLS-style).

``LoopPipeline`` attaches ``hls.pipeline`` / ``hls.ii`` / ``hls.unroll``
attributes to loops; the attributes travel down the lowering chain (to
``!llvm.loop`` metadata in the adaptor flow, to ``#pragma HLS`` in the C++
flow) and are consumed by the HLS engine's scheduler.
"""

from __future__ import annotations

from typing import Optional

from ...ir.transforms.pass_manager import PassStatistics
from ..core import BoolAttr, IntegerAttr, Operation, index
from ..dialects.builtin import ModuleOp
from .pass_manager import MLIRPass

__all__ = ["LoopPipeline", "set_loop_directives", "loop_directive_attrs"]

DIRECTIVE_ATTRS = ("hls.pipeline", "hls.ii", "hls.unroll", "hls.unroll_full",
                   "hls.flatten", "hls.dataflow")


def set_loop_directives(
    loop_op: Operation,
    pipeline: bool = False,
    ii: Optional[int] = None,
    unroll: Optional[int] = None,
    unroll_full: bool = False,
    flatten: bool = False,
    dataflow: bool = False,
) -> None:
    """Attach HLS directive attributes to an ``affine.for``/``scf.for``."""
    if loop_op.name not in ("affine.for", "scf.for"):
        raise ValueError(f"directives only attach to loops, got {loop_op.name}")
    if pipeline:
        loop_op.set_attr("hls.pipeline", BoolAttr(True))
    if ii is not None:
        loop_op.set_attr("hls.ii", IntegerAttr(ii, index))
    if unroll is not None:
        loop_op.set_attr("hls.unroll", IntegerAttr(unroll, index))
    if unroll_full:
        loop_op.set_attr("hls.unroll_full", BoolAttr(True))
    if flatten:
        loop_op.set_attr("hls.flatten", BoolAttr(True))
    if dataflow:
        loop_op.set_attr("hls.dataflow", BoolAttr(True))


def loop_directive_attrs(loop_op: Operation) -> dict:
    """Extract directive attributes as a plain dict."""
    out = {}
    for key in DIRECTIVE_ATTRS:
        attr = loop_op.get_attr(key)
        if attr is None:
            continue
        short = key.split(".", 1)[1]
        if isinstance(attr, IntegerAttr):
            out[short] = attr.value
        elif isinstance(attr, BoolAttr):
            out[short] = attr.value
    return out


class LoopPipeline(MLIRPass):
    """Pipeline every innermost loop with the configured II (default 1),
    mirroring the directive-application step of MLIR HLS tools."""

    name = "loop-pipeline"

    def __init__(self, ii: int = 1, only_innermost: bool = True):
        self.ii = ii
        self.only_innermost = only_innermost

    def run_on_module(self, module: ModuleOp, stats: PassStatistics) -> None:
        for op in module.walk():
            if op.name not in ("affine.for", "scf.for"):
                continue
            if self.only_innermost and self._has_nested_loop(op):
                continue
            if not op.has_attr("hls.pipeline"):
                set_loop_directives(op, pipeline=True, ii=self.ii)
                stats.bump("pipelined-loop")

    @staticmethod
    def _has_nested_loop(op: Operation) -> bool:
        for inner in op.walk():
            if inner is not op and inner.name in ("affine.for", "scf.for"):
                return True
        return False
