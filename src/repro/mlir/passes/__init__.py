"""MLIR-level passes: canonicalisation, HLS directive passes, unrolling,
and the lowering chain (affine -> scf -> cf -> mini-LLVM IR)."""

from .pass_manager import MLIRPass, MLIRPassManager
from .canonicalize import Canonicalize
from .affine_unroll import AffineUnroll
from .loop_pipeline import LoopPipeline
from .array_partition import ArrayPartition
from .affine_to_scf import AffineToSCF
from .scf_to_cf import SCFToCF
from .convert_to_llvm import ConvertToLLVM, convert_to_llvm

__all__ = [
    "MLIRPass",
    "MLIRPassManager",
    "Canonicalize",
    "AffineUnroll",
    "LoopPipeline",
    "ArrayPartition",
    "AffineToSCF",
    "SCFToCF",
    "ConvertToLLVM",
    "convert_to_llvm",
    "lowering_pipeline",
]


def lowering_pipeline() -> MLIRPassManager:
    """affine -> scf -> cf, ready for ConvertToLLVM / HLS C++ emission."""
    pm = MLIRPassManager()
    pm.add(Canonicalize())
    pm.add(AffineToSCF())
    pm.add(SCFToCF())
    return pm
