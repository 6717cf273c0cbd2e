"""IRBuilder: positioned construction of mini-LLVM IR, mirroring
``llvm::IRBuilder`` ergonomics."""

from __future__ import annotations

from typing import Optional, Sequence

from .instructions import (
    Alloca,
    BinaryOperator,
    Branch,
    Call,
    Cast,
    CondBranch,
    ExtractValue,
    FCmp,
    Freeze,
    GetElementPtr,
    ICmp,
    InsertValue,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
    Switch,
    Unreachable,
)
from .module import BasicBlock, Function, Module
from .types import FloatType, FunctionType, IntegerType, Type, i32, i64
from .values import ConstantFloat, ConstantInt, Value

__all__ = ["IRBuilder"]


class IRBuilder:
    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block
        self._before: Optional[Instruction] = None

    # -- positioning ---------------------------------------------------------
    def position_at_end(self, block: BasicBlock) -> "IRBuilder":
        self.block = block
        self._before = None
        return self

    def position_before(self, inst: Instruction) -> "IRBuilder":
        self.block = inst.parent
        self._before = inst
        return self

    @property
    def module(self) -> Module:
        fn = self.function
        if fn is None or fn.module is None:
            raise RuntimeError("builder is not positioned inside a module")
        return fn.module

    @property
    def function(self) -> Optional[Function]:
        return self.block.parent if self.block is not None else None

    def insert(self, inst: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        if self._before is not None:
            self.block.insert_before(self._before, inst)
        else:
            self.block.append(inst)
        return inst

    # -- constants -------------------------------------------------------------
    def const(self, value, type: Type) -> Value:
        if isinstance(type, IntegerType):
            return ConstantInt(type, int(value))
        if isinstance(type, FloatType):
            return ConstantFloat(type, float(value))
        raise TypeError(f"no scalar constant of type {type}")

    def i32_(self, value: int) -> ConstantInt:
        return ConstantInt(i32, value)

    def i64_(self, value: int) -> ConstantInt:
        return ConstantInt(i64, value)

    # -- arithmetic --------------------------------------------------------------
    def binop(self, opcode: str, lhs: Value, rhs: Value, name: str = "", **flags) -> Value:
        inst = BinaryOperator(opcode, lhs, rhs, name)
        for key, val in flags.items():
            setattr(inst, key, val)
        return self.insert(inst)

    def add(self, l: Value, r: Value, name: str = "", nsw: bool = False) -> Value:
        return self.binop("add", l, r, name, nsw=nsw)

    def sub(self, l: Value, r: Value, name: str = "", nsw: bool = False) -> Value:
        return self.binop("sub", l, r, name, nsw=nsw)

    def mul(self, l: Value, r: Value, name: str = "", nsw: bool = False) -> Value:
        return self.binop("mul", l, r, name, nsw=nsw)

    def sdiv(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("sdiv", l, r, name)

    def srem(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("srem", l, r, name)

    def and_(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("and", l, r, name)

    def or_(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("or", l, r, name)

    def xor(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("xor", l, r, name)

    def shl(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("shl", l, r, name)

    def ashr(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("ashr", l, r, name)

    def fadd(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("fadd", l, r, name)

    def fsub(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("fsub", l, r, name)

    def fmul(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("fmul", l, r, name)

    def fdiv(self, l: Value, r: Value, name: str = "") -> Value:
        return self.binop("fdiv", l, r, name)

    def icmp(self, predicate: str, l: Value, r: Value, name: str = "") -> Value:
        return self.insert(ICmp(predicate, l, r, name))

    def fcmp(self, predicate: str, l: Value, r: Value, name: str = "") -> Value:
        return self.insert(FCmp(predicate, l, r, name))

    # -- memory ---------------------------------------------------------------------
    def alloca(
        self,
        allocated_type: Type,
        array_size: Optional[Value] = None,
        name: str = "",
        align: Optional[int] = None,
    ) -> Value:
        opaque = self._opaque_mode()
        return self.insert(
            Alloca(allocated_type, array_size, name, align, opaque_pointers=opaque)
        )

    def load(self, type: Type, pointer: Value, name: str = "", align: Optional[int] = None) -> Value:
        return self.insert(Load(type, pointer, name, align))

    def store(self, value: Value, pointer: Value, align: Optional[int] = None) -> Value:
        return self.insert(Store(value, pointer, align))

    def gep(
        self,
        source_type: Type,
        pointer: Value,
        indices: Sequence[Value],
        name: str = "",
        inbounds: bool = True,
    ) -> Value:
        opaque = self._opaque_mode()
        return self.insert(
            GetElementPtr(
                source_type, pointer, indices, name, inbounds, opaque_pointers=opaque
            )
        )

    def _opaque_mode(self) -> bool:
        fn = self.function
        if fn is not None and fn.module is not None:
            return fn.module.opaque_pointers
        return True

    # -- casts --------------------------------------------------------------------------
    def cast(self, opcode: str, value: Value, to_type: Type, name: str = "") -> Value:
        return self.insert(Cast(opcode, value, to_type, name))

    def sext(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("sext", value, to_type, name)

    def zext(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("zext", value, to_type, name)

    def trunc(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("trunc", value, to_type, name)

    def sitofp(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("sitofp", value, to_type, name)

    def fptosi(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("fptosi", value, to_type, name)

    def bitcast(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("bitcast", value, to_type, name)

    # -- misc --------------------------------------------------------------------------
    def phi(self, type: Type, name: str = "") -> Phi:
        inst = Phi(type, name)
        # Phis must stay grouped at the block head.
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        pos = self.block.first_non_phi()
        if pos is not None:
            self.block.insert_before(pos, inst)
        else:
            self.block.append(inst)
        return inst

    def select(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> Value:
        return self.insert(Select(cond, if_true, if_false, name))

    def call(self, callee, args: Sequence[Value], name: str = "") -> Value:
        return self.insert(Call(callee, args, name))

    def freeze(self, value: Value, name: str = "") -> Value:
        return self.insert(Freeze(value, name))

    def extract_value(self, aggregate: Value, indices: Sequence[int], name: str = "") -> Value:
        return self.insert(ExtractValue(aggregate, indices, name))

    def insert_value(
        self, aggregate: Value, value: Value, indices: Sequence[int], name: str = ""
    ) -> Value:
        return self.insert(InsertValue(aggregate, value, indices, name))

    def intrinsic(self, name: str, return_type: Type, args: Sequence[Value], result_name: str = "") -> Value:
        """Call (declaring on demand) an ``llvm.*`` intrinsic or libm symbol."""
        ftype = FunctionType(return_type, [a.type for a in args])
        callee = self.module.declare_function(name, ftype)
        return self.call(callee, args, result_name)

    # -- terminators -----------------------------------------------------------------------
    def ret(self, value: Optional[Value] = None) -> Instruction:
        return self.insert(Return(value))

    def br(self, target: BasicBlock) -> Instruction:
        return self.insert(Branch(target))

    def cond_br(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Instruction:
        return self.insert(CondBranch(cond, if_true, if_false))

    def switch(self, value: Value, default: BasicBlock, cases=()) -> Instruction:
        return self.insert(Switch(value, default, cases))

    def unreachable(self) -> Instruction:
        return self.insert(Unreachable())
