"""Mini-MLIR substrate: ops/regions/blocks, dialects, passes, lowering.

Models the *source* side of the paper's pipeline: kernels are written at the
affine level, optimised with HLS directive passes, and lowered either to
mini-LLVM IR (the adaptor flow) or to HLS C++ (the baseline flow).
"""

from . import affine_expr, core
from .builder import OpBuilder
from .core import (
    Block,
    FunctionType,
    MemRefType,
    Operation,
    Region,
    Value,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
    memref,
)
from .dialects import affine, arith, builtin, cf, func, math, memref as memref_dialect, scf
from .dialects.builtin import ModuleOp
from .dialects.func import FuncOp
from .parser import MLIRParseError, parse_affine_map, parse_mlir_module
from .printer import print_module, print_operation
from .verifier import MLIRVerificationError, verify_module

__all__ = [
    "affine_expr",
    "core",
    "OpBuilder",
    "Block",
    "FunctionType",
    "MemRefType",
    "Operation",
    "Region",
    "Value",
    "f32",
    "f64",
    "i1",
    "i32",
    "i64",
    "index",
    "memref",
    "affine",
    "arith",
    "builtin",
    "cf",
    "func",
    "math",
    "memref_dialect",
    "scf",
    "ModuleOp",
    "FuncOp",
    "print_module",
    "print_operation",
    "MLIRVerificationError",
    "verify_module",
]
