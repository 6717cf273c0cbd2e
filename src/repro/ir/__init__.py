"""Mini-LLVM IR substrate: SSA IR, parser/printer, verifier, interpreter,
analyses and transforms.

This package models "LLVM IR as emitted by MLIR lowering" — the input side
of the paper's adaptor — including the modern features that create the
version gap with the Vitis-style HLS frontend (opaque pointers, ``freeze``,
modern intrinsics, ``!llvm.loop`` metadata).
"""

from . import types
from .builder import IRBuilder
from .interning import (
    InternContext,
    current_intern_context,
    intern_table_sizes,
    isolated_intern_context,
)
from .sidetable import ValueSideTable
from .interpreter import Interpreter, InterpreterError, run_kernel
from .metadata import (
    InterfaceSpec,
    LoopDirectives,
    MDNode,
    MDString,
    ValueAsMetadata,
    decode_loop_directives,
    encode_loop_directives,
)
from .module import BasicBlock, Function, Module
from .parser import ParseError, parse_module
from .printer import print_function, print_module
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "InternContext",
    "ValueSideTable",
    "current_intern_context",
    "intern_table_sizes",
    "isolated_intern_context",
    "types",
    "IRBuilder",
    "Interpreter",
    "InterpreterError",
    "run_kernel",
    "InterfaceSpec",
    "LoopDirectives",
    "MDNode",
    "MDString",
    "ValueAsMetadata",
    "decode_loop_directives",
    "encode_loop_directives",
    "BasicBlock",
    "Function",
    "Module",
    "ParseError",
    "parse_module",
    "print_function",
    "print_module",
    "VerificationError",
    "verify_function",
    "verify_module",
]
