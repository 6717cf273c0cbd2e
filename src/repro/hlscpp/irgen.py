"""IR generation for the HLS C++ subset — the model of the Vitis clang
frontend in the baseline flow.

Emits *old-dialect* IR directly: typed pointers, clang-style allocas for
every local (mem2reg promotes them afterwards, as -O1 would), 32-bit ``int``
induction variables with ``sext`` at subscripts, and ``#pragma HLS``
directives turned into the HLS metadata spelling / interface specs the
engine consumes.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..ir import types as irt
from ..ir.builder import IRBuilder
from ..ir.metadata import InterfaceSpec, LoopDirectives, encode_loop_directives
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import ConstantFloat, ConstantInt, Value
from .cast import (
    AssignStmt,
    BinaryOp,
    BoolLiteral,
    CallExpr,
    CastExpr,
    CompoundStmt,
    CType,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLiteral,
    ForStmt,
    FunctionDef,
    IntLiteral,
    NameRef,
    PragmaStmt,
    ReturnStmt,
    Subscript,
    Ternary,
    TranslationUnit,
    UnaryOp,
)
from .cparser import parse_translation_unit
from .sema import Sema, SemaError

__all__ = ["CFrontend", "compile_hls_cpp"]

_SCALAR_TYPES = {
    "void": irt.void,
    "bool": irt.i1,
    "char": irt.i8,
    "int8_t": irt.i8,
    "short": irt.i16,
    "int16_t": irt.i16,
    "int": irt.i32,
    "int32_t": irt.i32,
    "long": irt.i64,
    "int64_t": irt.i64,
    "half": irt.half,
    "float": irt.f32,
    "double": irt.f64,
}

_MATH_EXTERNALS = {
    "sqrtf", "sqrt", "fabsf", "fabs", "expf", "exp", "logf", "log",
    "sinf", "sin", "cosf", "cos", "powf", "pow", "floorf", "floor",
    "ceilf", "ceil",
}
# fma rounds once, as MLIR's math.fma does: an intrinsic call, not an fmul
# then an fadd.
_FMA = {"fmaf": "llvm.fma.f32", "fma": "llvm.fma.f64"}


def _ir_type(ctype: CType) -> irt.Type:
    base = _SCALAR_TYPES[ctype.base]
    if ctype.dims:
        return irt.array_of(base, *ctype.dims)
    return base


class CFrontend:
    def __init__(self, source: str):
        self.unit = Sema(parse_translation_unit(source)).run()
        self.module = Module("hls_cpp_unit", opaque_pointers=False)
        self.module.source_flow = "hls-cpp"

    def compile(self) -> Module:
        for fn in self.unit.functions:
            _FunctionIRGen(self.module, fn, self.unit).run()
        from ..ir.verifier import verify_module

        verify_module(self.module)
        return self.module


class _LValue:
    """Address + element CType for assignable expressions."""

    def __init__(self, address: Value, ctype: CType):
        self.address = address
        self.ctype = ctype


class _FunctionIRGen:
    def __init__(self, module: Module, fn: FunctionDef, unit: TranslationUnit):
        self.module = module
        self.src = fn
        self.unit = unit
        self.locals: List[Dict[str, Tuple[Value, CType, bool]]] = []  # (addr/val, type, is_value)
        self.builder = IRBuilder()
        self.fn: Optional[Function] = None
        self.interfaces: Dict[str, InterfaceSpec] = {}

    # -- entry ---------------------------------------------------------------
    def run(self) -> Function:
        params: List[irt.Type] = []
        names: List[str] = []
        for param in self.src.params:
            if param.type.is_array:
                params.append(irt.pointer_to(_ir_type(param.type)))
            else:
                params.append(_ir_type(param.type))
            names.append(param.name)
        ftype = irt.function_type(_ir_type(self.src.return_type), params)
        fn = self.module.add_function(self.src.name, ftype, names)
        self.fn = fn
        entry = fn.add_block("entry")
        self.builder.position_at_end(entry)
        self.locals.append({})
        for arg, param in zip(fn.arguments, self.src.params):
            if param.type.is_array:
                # Array parameters are addresses already (no alloca).
                self.locals[-1][param.name] = (arg, param.type, True)
            else:
                slot = self._entry_alloca(
                    _ir_type(param.type), f"{param.name}.addr",
                    _ir_type(param.type).byte_size(),
                )
                self.builder.store(arg, slot)
                self.locals[-1][param.name] = (slot, param.type, False)

        # Leading pragmas define the interfaces.
        statements = list(self.src.body.statements)
        while statements and isinstance(statements[0], PragmaStmt):
            self._function_pragma(statements.pop(0).text)
        self._gen_block(CompoundStmt(statements=statements))

        block = self.builder.block
        if block is not None and block.terminator is None:
            if fn.return_type.is_void:
                self.builder.ret()
            else:
                self.builder.unreachable()
        if self.interfaces:
            fn.attributes.add("hls_top")
            # Order interfaces by parameter order.
            fn.hls_interfaces = [
                self.interfaces[p.name]
                for p in self.src.params
                if p.name in self.interfaces
            ]
        self.locals.pop()
        return fn

    def _entry_alloca(self, ir_type: irt.Type, name: str, align: int) -> Value:
        """clang hoists all allocas into the entry block; so do we."""
        from ..ir.instructions import Alloca

        entry = self.fn.entry
        slot = Alloca(ir_type, None, name, align, opaque_pointers=False)
        term = entry.terminator
        if term is not None:
            entry.insert_before(term, slot)
        else:
            entry.append(slot)
        return slot

    # -- pragmas --------------------------------------------------------------------
    def _function_pragma(self, text: str) -> None:
        body = text[len("#pragma"):].strip()
        if not body.lower().startswith("hls"):
            return
        body = body[3:].strip()
        lower = body.lower()
        if lower.startswith("interface"):
            mode_match = re.search(r"interface\s+(\S+)", lower)
            port_match = re.search(r"port\s*=\s*(\S+)", body)
            if not (mode_match and port_match):
                return
            mode = mode_match.group(1)
            port = port_match.group(1)
            param = next((p for p in self.src.params if p.name == port), None)
            if param is None:
                raise SemaError(f"interface pragma for unknown port {port!r}")
            if param.type.is_array:
                depth = 1
                for d in param.type.dims:
                    depth *= d
                self.interfaces[port] = InterfaceSpec(
                    arg_name=port,
                    mode=mode,
                    depth=depth,
                    element_bits=_ir_type(param.type.element()).bit_width(),
                    dims=param.type.dims,
                )
            else:
                self.interfaces[port] = InterfaceSpec(arg_name=port, mode=mode)
        elif lower.startswith("array_partition"):
            var_match = re.search(r"variable\s*=\s*(\S+)", body)
            if not var_match:
                return
            var = var_match.group(1)
            kind = "cyclic"
            for k in ("cyclic", "block", "complete"):
                if k in lower:
                    kind = k
            factor_match = re.search(r"factor\s*=\s*(\d+)", lower)
            dim_match = re.search(r"dim\s*=\s*(\d+)", lower)
            partition = {
                "kind": kind,
                "factor": int(factor_match.group(1)) if factor_match else 1,
                "dim": (int(dim_match.group(1)) - 1) if dim_match else 0,
            }
            spec = self.interfaces.get(var)
            if spec is not None:
                spec.partition = partition
            if self.fn is not None:
                self.fn.hls_partitions[var] = partition

    @staticmethod
    def _loop_directives(pragmas: List[str]) -> LoopDirectives:
        directives = LoopDirectives()
        for text in pragmas:
            lower = text.lower()
            if "pipeline" in lower:
                directives.pipeline = True
                ii_match = re.search(r"ii\s*=\s*(\d+)", lower)
                directives.ii = int(ii_match.group(1)) if ii_match else 1
            if "unroll" in lower:
                factor_match = re.search(r"factor\s*=\s*(\d+)", lower)
                if factor_match:
                    directives.unroll = int(factor_match.group(1))
                else:
                    directives.unroll_full = True
            if "loop_flatten" in lower:
                directives.flatten = True
            if "dataflow" in lower:
                directives.dataflow = True
        return directives

    # -- statements -------------------------------------------------------------------
    def _gen_block(self, block: CompoundStmt) -> None:
        self.locals.append({})
        for stmt in block.statements:
            self._gen_stmt(stmt)
        self.locals.pop()

    def _gen_stmt(self, stmt) -> None:
        if isinstance(stmt, DeclStmt):
            ir_type = _ir_type(stmt.type)
            align = (
                ir_type.byte_size()
                if not stmt.type.is_array
                else _ir_type(stmt.type.element()).byte_size()
            )
            slot = self._entry_alloca(ir_type, stmt.name, align)
            self.locals[-1][stmt.name] = (slot, stmt.type, False)
            if stmt.init is not None:
                value = self._gen_expr(stmt.init)
                value = self._convert(value, stmt.init.type, stmt.type)
                self.builder.store(value, slot)
            return
        if isinstance(stmt, AssignStmt):
            lvalue = self._gen_lvalue(stmt.target)
            value = self._gen_expr(stmt.value)
            value = self._convert(value, stmt.value.type, lvalue.ctype)
            if stmt.op != "=":
                current = self.builder.load(
                    _ir_type(lvalue.ctype), lvalue.address,
                    align=_ir_type(lvalue.ctype).byte_size(),
                )
                op = {"+=": "add", "-=": "sub", "*=": "mul", "/=": "sdiv"}[stmt.op]
                if lvalue.ctype.is_float:
                    op = "f" + op.replace("sdiv", "div")
                value = self.builder.binop(op, current, value)
            self.builder.store(
                value, lvalue.address, align=_ir_type(lvalue.ctype).byte_size()
            )
            return
        if isinstance(stmt, ForStmt):
            self._gen_for(stmt)
            return
        if isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                value = self._gen_expr(stmt.value)
                value = self._convert(value, stmt.value.type, self.src.return_type)
                self.builder.ret(value)
            else:
                self.builder.ret()
            # Open a fresh (unreachable) block for any trailing code.
            cont = self.fn.add_block("post.ret")
            self.builder.position_at_end(cont)
            return
        if isinstance(stmt, PragmaStmt):
            return  # mid-body pragmas outside loops: no effect
        if isinstance(stmt, ExprStmt):
            self._gen_expr(stmt.expr)
            return
        if isinstance(stmt, CompoundStmt):
            self._gen_block(stmt)
            return
        raise SemaError(f"irgen: unhandled statement {type(stmt).__name__}")

    def _gen_for(self, stmt: ForStmt) -> None:
        fn = self.fn
        iv_type = _ir_type(stmt.var_type)
        slot = self._entry_alloca(iv_type, stmt.var, iv_type.byte_size())
        init = self._gen_expr(stmt.init)
        init = self._convert(init, stmt.init.type, stmt.var_type)
        self.builder.store(init, slot)

        header = fn.add_block(f"for.cond.{stmt.var}")
        body = fn.add_block(f"for.body.{stmt.var}")
        exit_block = fn.add_block(f"for.end.{stmt.var}")
        self.builder.br(header)

        self.builder.position_at_end(header)
        self.locals.append({stmt.var: (slot, stmt.var_type, False)})
        cond = self._gen_expr(stmt.cond)
        self.builder.cond_br(cond, body, exit_block)

        self.builder.position_at_end(body)
        self._gen_block(stmt.body)
        # Step and latch (in whatever block the body ended in).
        current = self.builder.load(iv_type, slot, f"{stmt.var}.next.load",
                                    align=iv_type.byte_size())
        stepped = self.builder.add(
            current, ConstantInt(iv_type, stmt.step), f"{stmt.var}.next", nsw=True
        )
        self.builder.store(stepped, slot)
        latch = self.builder.br(header)
        directives = self._loop_directives(stmt.pragmas)
        if not directives.is_empty():
            latch.metadata["llvm.loop"] = encode_loop_directives(
                directives, dialect="hls"
            )
        self.locals.pop()
        self.builder.position_at_end(exit_block)

    # -- lvalues -----------------------------------------------------------------------
    def _lookup(self, name: str) -> Tuple[Value, CType, bool]:
        for scope in reversed(self.locals):
            if name in scope:
                return scope[name]
        raise SemaError(f"irgen: unknown symbol {name!r}")

    def _gen_lvalue(self, expr: Expr) -> _LValue:
        if isinstance(expr, NameRef):
            addr, ctype, is_value = self._lookup(expr.name)
            if is_value:
                raise SemaError(f"cannot assign to array parameter {expr.name!r}")
            return _LValue(addr, ctype)
        if isinstance(expr, Subscript):
            return self._gen_subscript_address(expr)
        raise SemaError("irgen: unsupported lvalue")

    def _gen_subscript_address(self, expr: Subscript) -> _LValue:
        if not isinstance(expr.base, NameRef):
            raise SemaError("irgen: subscript base must be a name")
        base, ctype, is_value = self._lookup(expr.base.name)
        array_type = _ir_type(ctype)
        indices: List[Value] = [ConstantInt(irt.i64, 0)]
        for idx in expr.indices:
            value = self._gen_expr(idx)
            if value.type is not irt.i64:
                value = self.builder.sext(value, irt.i64)
            indices.append(value)
        address = self.builder.gep(array_type, base, indices, "arrayidx")
        remaining = ctype.dims[len(expr.indices):]
        return _LValue(address, CType(ctype.base, remaining))

    # -- expressions ----------------------------------------------------------------------
    def _gen_expr(self, expr: Expr) -> Value:
        if isinstance(expr, IntLiteral):
            return ConstantInt(irt.i32, expr.value)
        if isinstance(expr, FloatLiteral):
            return ConstantFloat(irt.f32 if expr.is_single else irt.f64, expr.value)
        if isinstance(expr, BoolLiteral):
            return ConstantInt(irt.i1, int(expr.value))
        if isinstance(expr, NameRef):
            addr, ctype, is_value = self._lookup(expr.name)
            if is_value or ctype.is_array:
                return addr
            ir_type = _ir_type(ctype)
            return self.builder.load(ir_type, addr, expr.name,
                                     align=ir_type.byte_size())
        if isinstance(expr, Subscript):
            lvalue = self._gen_subscript_address(expr)
            if lvalue.ctype.is_array:
                return lvalue.address
            ir_type = _ir_type(lvalue.ctype)
            return self.builder.load(ir_type, lvalue.address, "elem",
                                     align=ir_type.byte_size())
        if isinstance(expr, UnaryOp):
            value = self._gen_expr(expr.operand)
            if expr.op == "-":
                if expr.operand.type.is_float:
                    return self.builder.fsub(
                        ConstantFloat(value.type, -0.0), value, "neg"
                    )
                return self.builder.sub(ConstantInt(value.type, 0), value, "neg")
            if expr.op == "!":
                return self.builder.icmp("eq", value, ConstantInt(value.type, 0))
            if expr.op == "~":
                return self.builder.xor(value, ConstantInt(value.type, -1))
        if isinstance(expr, BinaryOp):
            return self._gen_binary(expr)
        if isinstance(expr, Ternary):
            cond = self._gen_expr(expr.cond)
            tval = self._gen_expr(expr.if_true)
            fval = self._gen_expr(expr.if_false)
            tval = self._convert(tval, expr.if_true.type, expr.type)
            fval = self._convert(fval, expr.if_false.type, expr.type)
            return self.builder.select(cond, tval, fval, "cond")
        if isinstance(expr, CastExpr):
            value = self._gen_expr(expr.operand)
            return self._convert(value, expr.operand.type, expr.target)
        if isinstance(expr, CallExpr):
            return self._gen_call(expr)
        raise SemaError(f"irgen: unhandled expression {type(expr).__name__}")

    def _gen_binary(self, expr: BinaryOp) -> Value:
        lhs = self._gen_expr(expr.lhs)
        rhs = self._gen_expr(expr.rhs)
        op = expr.op
        if op in ("==", "!=", "<", "<=", ">", ">="):
            common = Sema._common_type(expr.lhs.type, expr.rhs.type, expr.line)
            lhs = self._convert(lhs, expr.lhs.type, common)
            rhs = self._convert(rhs, expr.rhs.type, common)
            if common.is_float:
                pred = {"==": "oeq", "!=": "une", "<": "olt", "<=": "ole",
                        ">": "ogt", ">=": "oge"}[op]
                return self.builder.fcmp(pred, lhs, rhs, "cmp")
            pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                    ">": "sgt", ">=": "sge"}[op]
            return self.builder.icmp(pred, lhs, rhs, "cmp")
        if op in ("&&", "||"):
            # Non-short-circuit (operands are pure in this subset).
            ctor = self.builder.and_ if op == "&&" else self.builder.or_
            return ctor(lhs, rhs, "logic")
        common = expr.type
        lhs = self._convert(lhs, expr.lhs.type, common)
        rhs = self._convert(rhs, expr.rhs.type, common)
        if common.is_float:
            opcode = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv",
                      "%": "frem"}[op]
            return self.builder.binop(opcode, lhs, rhs)
        opcode = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
                  "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr"}[op]
        return self.builder.binop(opcode, lhs, rhs, nsw=opcode in ("add", "sub", "mul"))

    def _gen_call(self, expr: CallExpr) -> Value:
        args = [self._gen_expr(a) for a in expr.args]
        if expr.callee in ("std::max", "std::min"):
            common = expr.type
            l = self._convert(args[0], expr.args[0].type, common)
            r = self._convert(args[1], expr.args[1].type, common)
            if common.is_float:
                cmp = self.builder.fcmp(
                    "ogt" if expr.callee.endswith("max") else "olt", l, r
                )
            else:
                cmp = self.builder.icmp(
                    "sgt" if expr.callee.endswith("max") else "slt", l, r
                )
            return self.builder.select(cmp, l, r, "mm")
        if expr.callee in ("fminf", "fmaxf"):
            cmp = self.builder.fcmp(
                "olt" if "min" in expr.callee else "ogt", args[0], args[1]
            )
            return self.builder.select(cmp, args[0], args[1])
        if expr.callee in _MATH_EXTERNALS or expr.callee in _FMA:
            single = expr.callee.endswith("f")
            t = irt.f32 if single else irt.f64
            converted = [
                self._convert(a, e.type, CType("float" if single else "double"))
                for a, e in zip(args, expr.args)
            ]
            name = _FMA.get(expr.callee, expr.callee)
            return self.builder.intrinsic(name, t, converted, "mathcall")
        callee = self.module.get_function(expr.callee)
        if callee is None:
            raise SemaError(f"irgen: call to un-emitted function {expr.callee!r}")
        src_fn = next(f for f in self.unit.functions if f.name == expr.callee)
        converted = []
        for value, arg_expr, param in zip(args, expr.args, src_fn.params):
            if param.type.is_array:
                converted.append(value)
            else:
                converted.append(self._convert(value, arg_expr.type, param.type))
        return self.builder.call(callee, converted, "calltmp")

    # -- conversions ----------------------------------------------------------------------
    def _convert(self, value: Value, src: Optional[CType], dst: CType) -> Value:
        if src is None or src == dst or dst.is_array:
            return value
        src_t = _ir_type(src)
        dst_t = _ir_type(dst)
        if src_t is dst_t:
            return value
        if src.is_integer and dst.is_integer:
            if src_t.bit_width() < dst_t.bit_width():
                return self.builder.sext(value, dst_t)
            return self.builder.trunc(value, dst_t)
        if src.is_integer and dst.is_float:
            return self.builder.sitofp(value, dst_t)
        if src.is_float and dst.is_integer:
            return self.builder.fptosi(value, dst_t)
        if src.is_float and dst.is_float:
            cast = "fpext" if src_t.bit_width() < dst_t.bit_width() else "fptrunc"
            return self.builder.cast(cast, value, dst_t)
        raise SemaError(f"irgen: no conversion {src} -> {dst}")


def compile_hls_cpp(source: str) -> Module:
    """Parse + type-check + IR-gen one HLS C++ translation unit."""
    return CFrontend(source).compile()
