"""Array partitioning directives (ScaleHLS-style).

Partitioning splits an array across multiple BRAM banks so a pipelined or
unrolled loop can issue several accesses per cycle.  The directive is
attached to the function (per argument) and travels to the HLS engine's
memory model.
"""

from __future__ import annotations

from typing import Optional

from ...ir.transforms.pass_manager import PassStatistics
from ..core import DictAttr, IntegerAttr, MemRefType, StringAttr, index
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from .pass_manager import MLIRPass

__all__ = ["ArrayPartition", "set_array_partition", "get_array_partition"]

_KINDS = ("cyclic", "block", "complete")


def set_array_partition(
    fn: FuncOp, arg_name: str, kind: str, factor: int = 1, dim: int = 0
) -> None:
    if kind not in _KINDS:
        raise ValueError(f"bad partition kind {kind!r}; want one of {_KINDS}")
    if kind != "complete" and factor < 1:
        raise ValueError("partition factor must be >= 1")
    names = list(fn.arg_names)
    if arg_name not in names:
        raise ValueError(f"@{fn.sym_name} has no argument {arg_name!r}")
    fn.op.set_attr(
        f"hls.partition.{arg_name}",
        DictAttr(
            {
                "kind": StringAttr(kind),
                "factor": IntegerAttr(factor, index),
                "dim": IntegerAttr(dim, index),
            }
        ),
    )


def get_array_partition(fn: FuncOp, arg_name: str) -> Optional[dict]:
    attr = fn.op.get_attr(f"hls.partition.{arg_name}")
    if not isinstance(attr, DictAttr):
        return None
    return {
        "kind": attr.entries["kind"].value,  # type: ignore[union-attr]
        "factor": attr.entries["factor"].value,  # type: ignore[union-attr]
        "dim": attr.entries["dim"].value,  # type: ignore[union-attr]
    }


class ArrayPartition(MLIRPass):
    """Apply one partition spec to every memref argument of every function.

    The automated policy mirrors ScaleHLS's default: cyclic partitioning on
    the fastest-varying dimension with the given factor.
    """

    name = "array-partition"

    def __init__(self, kind: str = "cyclic", factor: int = 2, dim: Optional[int] = None):
        self.kind = kind
        self.factor = factor
        self.dim = dim

    def run_on_module(self, module: ModuleOp, stats: PassStatistics) -> None:
        for op in module.functions():
            fn = FuncOp(op)
            for arg, name in zip(fn.arguments, fn.arg_names):
                if not isinstance(arg.type, MemRefType):
                    continue
                if fn.op.has_attr(f"hls.partition.{name}"):
                    continue
                dim = self.dim if self.dim is not None else arg.type.rank - 1
                set_array_partition(fn, name, self.kind, self.factor, dim)
                stats.bump("partitioned-array")
