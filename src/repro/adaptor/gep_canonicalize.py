"""GEP canonicalisation and subscript delinearisation.

The expression-detail centrepiece of the adaptor: MLIR's memref lowering
linearises multi-dimensional subscripts (``A[i][j]`` becomes
``gep float, ptr, i*M + j``), but the HLS memory analysis wants structured
array subscripts (``gep [N x [M x float]], ptr, 0, i, j``) to prove access
independence for pipelining and partitioning.  Because the adaptor still
*has* the memref shape (carried down from the MLIR level), it can rebuild
the multi-dim form exactly — the information the HLS-C++ round-trip has to
re-derive from scratch.

Two rewrites per ``ap_memory`` argument:

* every linear access whose index decomposes as ``sum(idx_d * stride_d)``
  against the argument's row-major strides is rebuilt as a structured GEP;
* accesses that do not decompose keep a flattened ``[depth x elem]`` form
  so the argument still gets a single consistent pointee type.

The pass also merges trivial GEP-of-GEP chains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.instructions import BinaryOperator, GetElementPtr, Instruction, Load, Store
from ..ir.module import Function, Module
from ..ir.transforms.pass_manager import ModulePass, PassStatistics
from ..ir.types import ArrayType, Type, array_of, i64
from ..ir.values import Argument, ConstantInt, Value

__all__ = ["GEPCanonicalization", "decompose_linear_index"]


def _addends(value: Value) -> List[Value]:
    """Flatten a tree of adds into its leaf addends."""
    if isinstance(value, BinaryOperator) and value.opcode == "add":
        return _addends(value.lhs) + _addends(value.rhs)
    return [value]


def _as_term(value: Value) -> Tuple[Optional[Value], int]:
    """View an addend as (index_value, coefficient); (None, c) for constants."""
    if isinstance(value, ConstantInt):
        return None, value.value
    if isinstance(value, BinaryOperator):
        if value.opcode == "mul":
            if isinstance(value.rhs, ConstantInt):
                return value.lhs, value.rhs.value
            if isinstance(value.lhs, ConstantInt):
                return value.rhs, value.lhs.value
        if value.opcode == "shl" and isinstance(value.rhs, ConstantInt):
            return value.lhs, 1 << value.rhs.value
    return value, 1


def decompose_linear_index(
    linear: Value, strides: Tuple[int, ...]
) -> Optional[List[Tuple[Optional[Value], int]]]:
    """Match ``linear == sum(idx_d * strides[d])``.

    Returns one ``(value, offset)`` pair per dimension — subscript
    ``value + offset`` with ``value=None`` meaning a pure constant — or
    None when the expression does not decompose against these strides.

    Constant remainders (stencil offsets like ``A[i-1][j-1]`` which
    linearise to ``i*M + j - M - 1``) are split digit-by-digit with
    *truncating* division, recovering the per-dimension offsets exactly.
    """
    terms = [_as_term(a) for a in _addends(linear)]
    indices: List[Optional[Value]] = [None] * len(strides)
    const_accum = 0
    for value, coeff in terms:
        if value is None:
            const_accum += coeff
            continue
        placed = False
        for d, stride in enumerate(strides):
            if coeff == stride and indices[d] is None:
                indices[d] = value
                placed = True
                break
        if not placed:
            return None
    offsets = [0] * len(strides)
    if const_accum:
        remaining = const_accum
        for d, stride in enumerate(strides):
            q = abs(remaining) // stride
            digit = -q if remaining < 0 else q
            offsets[d] = digit
            remaining -= digit * stride
        if remaining:
            return None
    return list(zip(indices, offsets))


class GEPCanonicalization(ModulePass):
    name = "gep-canonicalize"

    def run_on_module(self, module: Module, stats: PassStatistics) -> None:
        for fn in module.defined_functions():
            self._merge_gep_chains(fn, stats)
            self._delinearize(fn, stats)

    # -- gep-of-gep merging ------------------------------------------------------
    def _merge_gep_chains(self, fn: Function, stats: PassStatistics) -> None:
        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                for inst in list(block.instructions):
                    if not isinstance(inst, GetElementPtr):
                        continue
                    base = inst.pointer
                    if (
                        isinstance(base, GetElementPtr)
                        and base.source_type is inst.source_type
                        and len(base.indices) == 1
                        and len(inst.indices) == 1
                    ):
                        from ..ir.builder import IRBuilder

                        builder = IRBuilder().position_before(inst)
                        combined = builder.add(
                            base.indices[0], inst.indices[0], "gep.merge"
                        )
                        merged = GetElementPtr(
                            inst.source_type,
                            base.pointer,
                            [combined],
                            inst.name,
                            inbounds=inst.inbounds and base.inbounds,
                            opaque_pointers=fn.module.opaque_pointers,
                        )
                        block.insert_before(inst, merged)
                        inst.replace_all_uses_with(merged)
                        inst.erase_from_parent()
                        stats.bump("gep-merged")
                        changed = True

    # -- delinearisation -----------------------------------------------------------
    def _delinearize(self, fn: Function, stats: PassStatistics) -> None:
        specs = {
            spec.arg_name: spec
            for spec in fn.hls_interfaces
            if spec.mode == "ap_memory"
        }
        if not specs:
            return
        args = {a.name: a for a in fn.arguments}
        # fn.hls_buffer_types records the pointee each buffer argument should
        # get when pointer retyping runs.
        buffer_types: Dict[str, Type] = getattr(fn, "hls_buffer_types", {})

        for name, spec in specs.items():
            arg = args.get(name)
            if arg is None:
                continue
            geps = [
                use.user
                for use in arg.uses
                if isinstance(use.user, GetElementPtr) and use.user.pointer is arg
            ]
            elem_type = self._element_type(geps)
            if elem_type is None:
                continue
            dims = spec.dims
            strides = self._row_major_strides(dims)
            rewrites = []
            ok = True
            for gep in geps:
                if len(gep.indices) != 1 or gep.source_type is not elem_type:
                    ok = False
                    break
                parts = decompose_linear_index(gep.indices[0], strides)
                if parts is None:
                    ok = False
                    break
                rewrites.append((gep, parts))
            if ok and len(dims) >= 1:
                from ..ir.instructions import BinaryOperator as _BinOp

                nd_type = array_of(elem_type, *dims)
                for gep, parts in rewrites:
                    subscripts: List[Value] = []
                    for value, offset in parts:
                        if value is None:
                            subscripts.append(ConstantInt(i64, offset))
                        elif offset == 0:
                            subscripts.append(value)
                        else:
                            # Materialise value + offset (stencil subscript).
                            adjusted = _BinOp(
                                "add", value, ConstantInt(i64, offset), "sub.adj"
                            )
                            adjusted.nsw = True
                            gep.parent.insert_before(gep, adjusted)
                            subscripts.append(adjusted)
                    new_gep = GetElementPtr(
                        nd_type,
                        arg,
                        [ConstantInt(i64, 0), *subscripts],
                        gep.name,
                        inbounds=True,
                        opaque_pointers=fn.module.opaque_pointers,
                    )
                    gep.parent.insert_before(gep, new_gep)
                    gep.replace_all_uses_with(new_gep)
                    gep.erase_from_parent()
                    stats.bump("delinearized-access")
                buffer_types[name] = nd_type
                stats.bump("delinearized-array")
            else:
                # Keep linear but give the buffer a consistent flattened type.
                depth = spec.depth or 1
                flat_type = ArrayType(elem_type, depth)
                for gep in geps:
                    if len(gep.indices) == 1 and gep.source_type is elem_type:
                        new_gep = GetElementPtr(
                            flat_type,
                            arg,
                            [ConstantInt(i64, 0), gep.indices[0]],
                            gep.name,
                            inbounds=True,
                            opaque_pointers=fn.module.opaque_pointers,
                        )
                        gep.parent.insert_before(gep, new_gep)
                        gep.replace_all_uses_with(new_gep)
                        gep.erase_from_parent()
                        stats.bump("flattened-access")
                buffer_types[name] = flat_type
        fn.hls_buffer_types = buffer_types

    @staticmethod
    def _element_type(geps) -> Optional[Type]:
        types = {id(g.source_type): g.source_type for g in geps}
        if len(types) == 1:
            t = next(iter(types.values()))
            if t.is_scalar:
                return t
        return None

    @staticmethod
    def _row_major_strides(dims: Tuple[int, ...]) -> Tuple[int, ...]:
        out = []
        acc = 1
        for dim in reversed(dims):
            out.append(acc)
            acc *= dim
        return tuple(reversed(out))
