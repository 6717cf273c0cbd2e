"""Convert cf-level mini-MLIR into mini-LLVM IR — the *modern* IR the
paper's adaptor consumes.

Faithfully mirrors the shape of upstream MLIR's FinalizeMemRefToLLVM /
ConvertFuncToLLVM output, including every modern-IR feature that creates the
version gap with the Vitis-style frontend:

* **opaque pointers** (``ptr``) everywhere;
* **memref descriptors**: each memref argument expands to
  ``(ptr, ptr, i64 offset, i64 sizes..., i64 strides...)`` and is packed
  into a ``{ptr, ptr, i64, [r x i64], [r x i64]}`` struct via
  ``insertvalue`` chains; loads/stores go through ``extractvalue`` +
  linearised GEP;
* **modern intrinsics**: ``llvm.smax/smin`` (arith.maxsi/minsi),
  ``llvm.fmuladd`` (math.fma), ``llvm.memcpy`` (memref.copy),
  ``llvm.sqrt.*``-family math, ``llvm.lifetime.start/end`` around allocas;
* **freeze** on integer arguments feeding control flow (mirroring what
  modern LLVM inserts to block poison propagation);
* **!llvm.loop metadata** in the *modern* spelling for HLS directives
  attached upstream.

The emitted module deliberately fails the strict HLS frontend until the
adaptor has run — that gap is the paper's subject.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ... import ir
from ...ir import types as irt
from ...ir.builder import IRBuilder
from ...ir.metadata import LoopDirectives, encode_loop_directives
from ...ir.transforms.pass_manager import PassStatistics
from ...ir.values import ConstantFloat, ConstantInt, UndefValue
from ..core import (
    Block,
    BoolAttr,
    FloatAttr,
    FloatType,
    IndexType,
    IntType,
    IntegerAttr,
    MemRefType,
    Operation,
    Value,
)
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from .pass_manager import MLIRPass

__all__ = ["ConvertToLLVM", "convert_to_llvm", "descriptor_type"]


def _convert_scalar_type(t) -> irt.Type:
    if isinstance(t, IndexType):
        return irt.i64
    if isinstance(t, IntType):
        return irt.IntegerType(t.width)
    if isinstance(t, FloatType):
        return {"f16": irt.half, "f32": irt.f32, "f64": irt.f64}[t.kind]
    raise TypeError(f"no LLVM lowering for type {t}")


def descriptor_type(mtype: MemRefType) -> irt.StructType:
    """The memref descriptor struct: {allocated, aligned, offset, sizes, strides}."""
    rank = max(mtype.rank, 1)
    return irt.struct_of(
        irt.ptr,
        irt.ptr,
        irt.i64,
        irt.array_of(irt.i64, rank),
        irt.array_of(irt.i64, rank),
    )


class _FuncLowering:
    def __init__(self, module: ir.Module, fn: FuncOp, stats: PassStatistics):
        self.module = module
        self.fn = fn
        self.stats = stats
        self.vmap: Dict[int, ir.module.Value] = {}
        self.block_map: Dict[int, ir.BasicBlock] = {}
        self.phi_fixups: List = []  # (mlir block, ir phi list)
        # memref SSA value -> descriptor info for access lowering
        self.memref_info: Dict[int, dict] = {}
        # arg_name -> shape/element/components, recorded on the ir.Function
        self._memref_arg_info: Dict[str, dict] = {}

    # -- signature -----------------------------------------------------------
    def lower(self) -> ir.Function:
        fn = self.fn
        param_types: List[irt.Type] = []
        param_names: List[str] = []
        memref_params: List[Optional[MemRefType]] = []
        for arg, name in zip(fn.arguments, fn.arg_names):
            if isinstance(arg.type, MemRefType):
                rank = max(arg.type.rank, 1)
                components = [name, f"{name}_aligned", f"{name}_offset"]
                components += [f"{name}_size{d}" for d in range(rank)]
                components += [f"{name}_stride{d}" for d in range(rank)]
                param_types += [irt.ptr, irt.ptr, irt.i64] + [irt.i64] * (2 * rank)
                param_names += components
                memref_params.append(arg.type)
                self._memref_arg_info[name] = {
                    "shape": arg.type.shape or (1,),
                    "element_bits": _convert_scalar_type(arg.type.element).bit_width(),
                    "components": components,
                }
            else:
                param_types.append(_convert_scalar_type(arg.type))
                param_names.append(name)
                memref_params.append(None)
        results = fn.function_type.results
        if len(results) > 1:
            raise TypeError("multi-result functions are out of scope")
        ret_type = _convert_scalar_type(results[0]) if results else irt.void
        out = self.module.add_function(
            fn.sym_name, irt.function_type(ret_type, param_types), param_names
        )
        if fn.op.has_attr("hls.top"):
            out.attributes.add("hls_top")

        # Pre-create IR blocks for every MLIR block.
        for i, block in enumerate(fn.body.blocks):
            ir_block = out.add_block("entry" if i == 0 else f"bb{i}")
            self.block_map[id(block)] = ir_block

        # Entry: pack descriptors, freeze integer scalars.
        builder = IRBuilder(out.entry)
        arg_cursor = 0
        for arg, mtype, name in zip(fn.arguments, memref_params, fn.arg_names):
            if mtype is None:
                ir_arg = out.arguments[arg_cursor]
                arg_cursor += 1
                if isinstance(ir_arg.type, irt.IntegerType):
                    # Modern LLVM blocks poison propagation into branch
                    # conditions with freeze; the adaptor removes these.
                    frozen = builder.freeze(ir_arg, f"{name}.fr")
                    self.vmap[id(arg)] = frozen
                else:
                    self.vmap[id(arg)] = ir_arg
                continue
            rank = max(mtype.rank, 1)
            parts = out.arguments[arg_cursor : arg_cursor + 3 + 2 * rank]
            arg_cursor += 3 + 2 * rank
            desc = self._pack_descriptor(builder, mtype, parts, name)
            self.vmap[id(arg)] = desc
            self.memref_info[id(desc)] = {
                "type": mtype,
                "aligned": parts[1],
                "strides": None,  # static strides preferred below
                "name": name,
            }
        self._entry_builder = builder

        # Lower every block's ops.
        for block in fn.body.blocks:
            self._lower_block(block, self.block_map[id(block)])

        # Wire phi incoming edges now that every block is lowered.
        self._fix_phis()
        out.hls_memref_args = dict(self._memref_arg_info)
        return out

    def _pack_descriptor(self, builder: IRBuilder, mtype: MemRefType, parts, name: str):
        dtype = descriptor_type(mtype)
        desc: ir.module.Value = UndefValue(dtype)
        desc = builder.insert_value(desc, parts[0], [0], f"{name}.d0")
        desc = builder.insert_value(desc, parts[1], [1], f"{name}.d1")
        desc = builder.insert_value(desc, parts[2], [2], f"{name}.d2")
        rank = max(mtype.rank, 1)
        shape = mtype.shape or (1,)
        strides = mtype.strides() or (1,)
        for d in range(rank):
            desc = builder.insert_value(
                desc, ConstantInt(irt.i64, shape[d]), [3, d], f"{name}.sz{d}"
            )
        for d in range(rank):
            desc = builder.insert_value(
                desc, ConstantInt(irt.i64, strides[d]), [4, d], f"{name}.st{d}"
            )
        self.stats.bump("descriptor-packed")
        return desc

    # -- blocks ------------------------------------------------------------------
    def _lower_block(self, block: Block, ir_block: ir.BasicBlock) -> None:
        builder = IRBuilder(ir_block)
        # Block arguments (except entry, which maps function args) -> phis.
        if block is not self.fn.entry:
            phis = []
            for arg in block.arguments:
                phi = builder.phi(_convert_scalar_type(arg.type), "barg")
                self.vmap[id(arg)] = phi
                phis.append(phi)
            self.phi_fixups.append((block, phis))
        for op in block.operations:
            self._lower_op(op, builder)

    def _fix_phis(self) -> None:
        # For each mlir block with phis, find predecessors by scanning all
        # branch ops; record the values each edge passes.
        edges: Dict[int, List] = {id(b): [] for b, _p in self.phi_fixups}
        for block in self.fn.body.blocks:
            term = block.terminator
            if term is None or term.name not in ("cf.br", "cf.cond_br"):
                continue
            ir_pred = self.block_map[id(block)]
            if term.name == "cf.br":
                dest = term.successors[0]
                if id(dest) in edges:
                    values = [self.vmap[id(v)] for v in term.operands]
                    edges[id(dest)].append((ir_pred, values))
            else:
                true_count = term.get_attr("true_arg_count").value  # type: ignore
                operands = term.operands[1:]
                true_dest, false_dest = term.successors
                if id(true_dest) in edges:
                    values = [self.vmap[id(v)] for v in operands[:true_count]]
                    edges[id(true_dest)].append((ir_pred, values))
                if id(false_dest) in edges:
                    values = [self.vmap[id(v)] for v in operands[true_count:]]
                    edges[id(false_dest)].append((ir_pred, values))
        for block, phis in self.phi_fixups:
            for pred_block, values in edges[id(block)]:
                for phi, value in zip(phis, values):
                    phi.add_incoming(value, pred_block)

    # -- value helpers -----------------------------------------------------------
    def _v(self, value: Value):
        mapped = self.vmap.get(id(value))
        if mapped is None:
            raise RuntimeError(f"unlowered value {value!r}")
        return mapped

    def _entry_alloca(self, array_type, align: int):
        """Allocate a local array in the entry block (before its terminator),
        the way HLS expects local BRAMs to be declared."""
        from ...ir.instructions import Alloca

        entry = self._entry_builder.block
        slot = Alloca(array_type, None, "larr", align, opaque_pointers=True)
        term = entry.terminator
        if term is not None:
            entry.insert_before(term, slot)
        else:
            entry.append(slot)
        return slot

    def _memref_access(self, builder: IRBuilder, ref: Value, indices, name: str):
        """Compute the element pointer for a memref access via the
        descriptor's aligned pointer and static strides."""
        desc = self._v(ref)
        mtype: MemRefType = ref.type  # type: ignore[assignment]
        elem_type = _convert_scalar_type(mtype.element)
        aligned = builder.extract_value(desc, [1], f"{name}.base")
        strides = mtype.strides() or (1,)
        linear = None
        for idx_value, stride in zip(indices, strides):
            idx = self._v(idx_value)
            term = (
                idx
                if stride == 1
                else builder.mul(idx, ConstantInt(irt.i64, stride), f"{name}.mul")
            )
            linear = term if linear is None else builder.add(linear, term, f"{name}.add")
        if linear is None:
            linear = ConstantInt(irt.i64, 0)
        return builder.gep(elem_type, aligned, [linear], f"{name}.gep"), elem_type

    # -- op lowering ------------------------------------------------------------------
    def _lower_op(self, op: Operation, builder: IRBuilder) -> None:
        name = op.name
        s = self.stats

        if name == "arith.constant":
            attr = op.get_attr("value")
            rtype = _convert_scalar_type(op.results[0].type)
            if isinstance(attr, IntegerAttr):
                self.vmap[id(op.results[0])] = ConstantInt(rtype, attr.value)
            elif isinstance(attr, FloatAttr):
                self.vmap[id(op.results[0])] = ConstantFloat(rtype, attr.value)
            else:
                raise TypeError(f"bad constant attr {attr}")
            return

        int_binops = {
            "arith.addi": "add", "arith.subi": "sub", "arith.muli": "mul",
            "arith.divsi": "sdiv", "arith.remsi": "srem",
            "arith.andi": "and", "arith.ori": "or", "arith.xori": "xor",
            "arith.shli": "shl", "arith.shrsi": "ashr",
        }
        if name in int_binops:
            result = builder.binop(
                int_binops[name], self._v(op.get_operand(0)),
                self._v(op.get_operand(1)), nsw=True,
            )
            self.vmap[id(op.results[0])] = result
            return
        if name in ("arith.floordivsi", "arith.ceildivsi"):
            # MLIR's expansion: sdiv rounds toward zero, so an inexact
            # quotient steps once toward -inf (floor) when the signs differ
            # or toward +inf (ceil) when they agree.
            floor = name == "arith.floordivsi"
            l = self._v(op.get_operand(0))
            r = self._v(op.get_operand(1))
            zero, one = ConstantInt(l.type, 0), ConstantInt(l.type, 1)
            quotient = builder.sdiv(l, r)
            inexact = builder.icmp("ne", builder.mul(quotient, r), l)
            signs = builder.icmp(
                "ne" if floor else "eq",
                builder.icmp("slt", l, zero),
                builder.icmp("slt", r, zero),
            )
            stepped = builder.binop("sub" if floor else "add", quotient, one)
            self.vmap[id(op.results[0])] = builder.select(
                builder.and_(inexact, signs), stepped, quotient
            )
            return
        float_binops = {
            "arith.addf": "fadd", "arith.subf": "fsub",
            "arith.mulf": "fmul", "arith.divf": "fdiv",
        }
        if name in float_binops:
            result = builder.binop(
                float_binops[name],
                self._v(op.get_operand(0)),
                self._v(op.get_operand(1)),
            )
            self.vmap[id(op.results[0])] = result
            return
        if name in ("arith.maxsi", "arith.minsi"):
            # Modern lowering: llvm.smax/llvm.smin intrinsics (LLVM >= 12).
            intrinsic = "llvm.smax" if name.endswith("maxsi") else "llvm.smin"
            l = self._v(op.get_operand(0))
            rtype = l.type
            result = builder.intrinsic(
                f"{intrinsic}.{rtype}", rtype, [l, self._v(op.get_operand(1))]
            )
            self.vmap[id(op.results[0])] = result
            s.bump("modern-intrinsic")
            return
        if name in ("arith.maximumf", "arith.minimumf"):
            intrinsic = "llvm.maxnum" if "max" in name else "llvm.minnum"
            l = self._v(op.get_operand(0))
            suffix = {"half": "f16", "float": "f32", "double": "f64"}[str(l.type)]
            result = builder.intrinsic(
                f"{intrinsic}.{suffix}", l.type, [l, self._v(op.get_operand(1))]
            )
            self.vmap[id(op.results[0])] = result
            s.bump("modern-intrinsic")
            return
        if name == "arith.negf":
            value = self._v(op.get_operand(0))
            result = builder.fsub(ConstantFloat(value.type, -0.0), value)
            self.vmap[id(op.results[0])] = result
            return
        if name == "arith.cmpi":
            pred = op.get_attr("predicate").value  # type: ignore[union-attr]
            result = builder.icmp(
                pred, self._v(op.get_operand(0)), self._v(op.get_operand(1))
            )
            self.vmap[id(op.results[0])] = result
            return
        if name == "arith.cmpf":
            pred = op.get_attr("predicate").value  # type: ignore[union-attr]
            result = builder.fcmp(
                pred, self._v(op.get_operand(0)), self._v(op.get_operand(1))
            )
            self.vmap[id(op.results[0])] = result
            return
        if name == "arith.select":
            result = builder.select(
                self._v(op.get_operand(0)),
                self._v(op.get_operand(1)),
                self._v(op.get_operand(2)),
            )
            self.vmap[id(op.results[0])] = result
            return
        if name in ("arith.index_cast", "arith.trunci", "arith.extsi"):
            value = self._v(op.get_operand(0))
            to = _convert_scalar_type(op.results[0].type)
            if value.type is to:
                self.vmap[id(op.results[0])] = value
            elif value.type.bit_width() < to.bit_width():
                self.vmap[id(op.results[0])] = builder.sext(value, to)
            else:
                self.vmap[id(op.results[0])] = builder.trunc(value, to)
            return
        if name == "arith.sitofp":
            self.vmap[id(op.results[0])] = builder.sitofp(
                self._v(op.get_operand(0)),
                _convert_scalar_type(op.results[0].type),
            )
            return
        if name == "arith.fptosi":
            self.vmap[id(op.results[0])] = builder.fptosi(
                self._v(op.get_operand(0)),
                _convert_scalar_type(op.results[0].type),
            )
            return
        if name in ("arith.extf", "arith.truncf"):
            cast = "fpext" if name == "arith.extf" else "fptrunc"
            self.vmap[id(op.results[0])] = builder.cast(
                cast,
                self._v(op.get_operand(0)),
                _convert_scalar_type(op.results[0].type),
            )
            return

        if name.startswith("math."):
            self._lower_math(op, builder)
            return

        if name == "memref.load":
            pointer, elem_type = self._memref_access(
                builder, op.get_operand(0), op.operands[1:], "ld"
            )
            self.vmap[id(op.results[0])] = builder.load(
                elem_type, pointer, align=elem_type.byte_size()
            )
            return
        if name == "memref.store":
            pointer, elem_type = self._memref_access(
                builder, op.get_operand(1), op.operands[2:], "st"
            )
            builder.store(self._v(op.get_operand(0)), pointer, align=elem_type.byte_size())
            return
        if name in ("memref.alloc", "memref.alloca"):
            mtype: MemRefType = op.results[0].type  # type: ignore[assignment]
            elem = _convert_scalar_type(mtype.element)
            array_type = irt.array_of(elem, max(mtype.num_elements, 1))
            slot = self._entry_alloca(array_type, elem.byte_size())
            base = builder.gep(
                array_type, slot, [ConstantInt(irt.i64, 0), ConstantInt(irt.i64, 0)],
                "larr.base",
            )
            # Modern noise: lifetime markers around local buffers.
            builder.intrinsic(
                "llvm.lifetime.start.p0",
                irt.void,
                [ConstantInt(irt.i64, array_type.byte_size()), slot],
            )
            desc = self._pack_descriptor(
                builder, mtype, [base, base, ConstantInt(irt.i64, 0)], "larr"
            )
            self.vmap[id(op.results[0])] = desc
            self.stats.bump("local-array")
            return
        if name == "memref.dealloc":
            return  # stack-allocated in HLS; nothing to free
        if name == "memref.copy":
            src = self._v(op.get_operand(0))
            dst = self._v(op.get_operand(1))
            mtype = op.get_operand(0).type  # type: ignore[assignment]
            elem = _convert_scalar_type(mtype.element)
            nbytes = mtype.num_elements * elem.byte_size()
            src_ptr = builder.extract_value(src, [1], "cp.src")
            dst_ptr = builder.extract_value(dst, [1], "cp.dst")
            builder.intrinsic(
                "llvm.memcpy.p0.p0.i64",
                irt.void,
                [dst_ptr, src_ptr, ConstantInt(irt.i64, nbytes),
                 ir.values.const_bool(False)],
            )
            s.bump("modern-intrinsic")
            return

        if name == "cf.br":
            dest = op.successors[0]
            latch = builder.br(self.block_map[id(dest)])
            self._attach_loop_metadata(op, latch)
            return
        if name == "cf.cond_br":
            true_dest, false_dest = op.successors
            builder.cond_br(
                self._v(op.get_operand(0)),
                self.block_map[id(true_dest)],
                self.block_map[id(false_dest)],
            )
            return
        if name == "func.return":
            if op.operands:
                builder.ret(self._v(op.get_operand(0)))
            else:
                builder.ret()
            return
        if name == "func.call":
            callee_name = op.get_attr("callee").symbol  # type: ignore[union-attr]
            callee = self.module.get_function(callee_name)
            if callee is None:
                raise RuntimeError(
                    f"call to @{callee_name} before its definition was lowered"
                )
            args = [self._v(v) for v in op.operands]
            result = builder.call(callee, args)
            if op.results:
                self.vmap[id(op.results[0])] = result
            return
        raise TypeError(f"ConvertToLLVM: unhandled op {name}")

    def _lower_math(self, op: Operation, builder: IRBuilder) -> None:
        suffix_map = {"half": "f16", "float": "f32", "double": "f64"}
        value = self._v(op.get_operand(0))
        suffix = suffix_map[str(value.type)]
        unary = {
            "math.sqrt": "llvm.sqrt",
            "math.exp": "llvm.exp",
            "math.log": "llvm.log",
            "math.sin": "llvm.sin",
            "math.cos": "llvm.cos",
            "math.absf": "llvm.fabs",
        }
        if op.name in unary:
            result = builder.intrinsic(f"{unary[op.name]}.{suffix}", value.type, [value])
            self.vmap[id(op.results[0])] = result
            self.stats.bump("modern-intrinsic")
            return
        if op.name == "math.powf":
            result = builder.intrinsic(
                f"llvm.pow.{suffix}", value.type,
                [value, self._v(op.get_operand(1))],
            )
            self.vmap[id(op.results[0])] = result
            self.stats.bump("modern-intrinsic")
            return
        if op.name == "math.fma":
            result = builder.intrinsic(
                f"llvm.fmuladd.{suffix}", value.type,
                [value, self._v(op.get_operand(1)), self._v(op.get_operand(2))],
            )
            self.vmap[id(op.results[0])] = result
            self.stats.bump("modern-intrinsic")
            return
        raise TypeError(f"ConvertToLLVM: unhandled math op {op.name}")

    def _attach_loop_metadata(self, op: Operation, latch) -> None:
        directives = LoopDirectives(
            pipeline=bool(self._battr(op, "hls.pipeline")),
            ii=self._iattr(op, "hls.ii"),
            unroll=self._iattr(op, "hls.unroll"),
            unroll_full=bool(self._battr(op, "hls.unroll_full")),
            flatten=bool(self._battr(op, "hls.flatten")),
            dataflow=bool(self._battr(op, "hls.dataflow")),
        )
        if not directives.is_empty():
            latch.metadata["llvm.loop"] = encode_loop_directives(
                directives, dialect="modern"
            )
            self.stats.bump("loop-metadata")

    @staticmethod
    def _battr(op: Operation, key: str) -> bool:
        attr = op.get_attr(key)
        return attr.value if isinstance(attr, BoolAttr) else False

    @staticmethod
    def _iattr(op: Operation, key: str) -> Optional[int]:
        attr = op.get_attr(key)
        return attr.value if isinstance(attr, IntegerAttr) else None


def convert_to_llvm(module: ModuleOp, stats: Optional[PassStatistics] = None) -> ir.Module:
    """Lower a cf-level mini-MLIR module to a modern mini-LLVM IR module."""
    stats = stats or PassStatistics("convert-to-llvm")
    out = ir.Module(module.name, opaque_pointers=True)
    out.source_flow = "mlir-lowering"
    for fn_op in module.functions():
        fn = FuncOp(fn_op)
        if fn.is_declaration:
            continue
        lowering = _FuncLowering(out, fn, stats)
        ir_fn = lowering.lower()
        # Carry array-partition directives across as function metadata
        # (structured attribute, consumed by the adaptor's interface pass).
        partitions = {}
        for key, attr in fn_op.attributes.items():
            if key.startswith("hls.partition."):
                arg_name = key[len("hls.partition.") :]
                partitions[arg_name] = {
                    "kind": attr.entries["kind"].value,  # type: ignore[union-attr]
                    "factor": attr.entries["factor"].value,  # type: ignore[union-attr]
                    "dim": attr.entries["dim"].value,  # type: ignore[union-attr]
                }
        if partitions:
            ir_fn.hls_partitions = partitions
    from ...ir.verifier import verify_module as verify_ir

    verify_ir(out)
    return out


class ConvertToLLVM(MLIRPass):
    name = "convert-to-llvm"

    def __init__(self):
        self.result: Optional[ir.Module] = None

    def run_on_module(self, module: ModuleOp, stats: PassStatistics) -> None:
        self.result = convert_to_llvm(module, stats)
