"""Derive HLS top-function interfaces and collapse the expanded memref
signature to bare pointers.

MLIR lowering expands every memref argument to
``(ptr, ptr aligned, i64 offset, i64 sizes..., i64 strides...)``.  After
struct flattening, only the *aligned* pointer is live; the HLS frontend
expects one pointer per array.  This pass rewrites the signature to
``(ptr per array, scalars...)``, records an :class:`InterfaceSpec` per
argument (``ap_memory`` for arrays with depth/dims/partitioning,
``s_axilite`` for scalars), and keeps the memref dims available for GEP
delinearisation.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.metadata import InterfaceSpec
from ..ir.module import Function, Module
from ..ir.transforms.pass_manager import ModulePass, PassStatistics
from ..ir.types import FunctionType, PointerType
from ..ir.values import Argument

__all__ = ["InterfaceLowering"]


class InterfaceLowering(ModulePass):
    name = "interface-lowering"

    def run_on_module(self, module: Module, stats: PassStatistics) -> None:
        for fn in module.defined_functions():
            if fn.hls_memref_args:
                self._lower_function(fn, stats)

    def _lower_function(self, fn: Function, stats: PassStatistics) -> None:
        by_name: Dict[str, Argument] = {a.name: a for a in fn.arguments}
        grouped: set = set()
        for info in fn.hls_memref_args.values():
            grouped.update(info["components"])

        # Descriptor components (other than the pointers) must be dead by
        # now; if struct flattening was skipped (ablation) they are still
        # live and the signature cannot collapse — leave the function
        # unadapted so the strict frontend reports the failure.
        for info in fn.hls_memref_args.values():
            for comp in info["components"][2:]:
                arg = by_name.get(comp)
                if arg is not None and arg.is_used:
                    stats.bump("skipped-live-descriptor")
                    return

        new_args: List[Argument] = []
        interfaces: List[InterfaceSpec] = []

        for arg in fn.arguments:
            if arg.name in grouped and arg.name not in fn.hls_memref_args:
                continue  # dead descriptor component (checked above)
            if arg.name in fn.hls_memref_args:
                info = fn.hls_memref_args[arg.name]
                aligned = by_name[f"{arg.name}_aligned"]
                # New bare-pointer argument, taking over both the base and
                # aligned pointers' uses.
                bare = Argument(PointerType(), arg.name, len(new_args))
                bare.parent = fn
                aligned.replace_all_uses_with(bare)
                arg.replace_all_uses_with(bare)
                new_args.append(bare)
                depth = 1
                for dim in info["shape"]:
                    depth *= dim
                interfaces.append(
                    InterfaceSpec(
                        arg_name=arg.name,
                        mode="ap_memory",
                        depth=depth,
                        element_bits=info["element_bits"],
                        dims=tuple(info["shape"]),
                        partition=fn.hls_partitions.get(arg.name),
                    )
                )
                stats.bump("array-interface")
            else:
                arg.index = len(new_args)
                new_args.append(arg)
                interfaces.append(InterfaceSpec(arg_name=arg.name, mode="s_axilite"))
                stats.bump("scalar-interface")

        fn.arguments = new_args
        fn.function_type = FunctionType(
            fn.function_type.return_type, [a.type for a in new_args]
        )
        fn.hls_interfaces = interfaces
