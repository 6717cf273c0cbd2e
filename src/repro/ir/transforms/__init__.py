"""IR-to-IR transforms and the pass manager."""

from .pass_manager import (
    FunctionPass,
    ModulePass,
    PassManager,
    PassStatistics,
    count_instructions,
)
from .mem2reg import Mem2Reg
from .dce import DeadCodeElimination
from .sccp import SparseConditionalConstantPropagation
from .simplify_cfg import SimplifyCFG
from .instcombine import InstCombine
from .cse import CommonSubexpressionElimination

__all__ = [
    "FunctionPass",
    "ModulePass",
    "PassManager",
    "PassStatistics",
    "count_instructions",
    "Mem2Reg",
    "DeadCodeElimination",
    "SparseConditionalConstantPropagation",
    "SimplifyCFG",
    "InstCombine",
    "CommonSubexpressionElimination",
    "standard_cleanup_pipeline",
]


def standard_cleanup_pipeline() -> PassManager:
    """The -O1-style cleanup both flows run before HLS scheduling."""
    pm = PassManager()
    pm.add(Mem2Reg())
    pm.add(SparseConditionalConstantPropagation())
    pm.add(InstCombine())
    pm.add(CommonSubexpressionElimination())
    pm.add(DeadCodeElimination())
    pm.add(SimplifyCFG())
    pm.add(CommonSubexpressionElimination())
    pm.add(DeadCodeElimination())
    return pm
