"""Reference interpreter for the mini-LLVM IR.

Serves as the functional-equivalence oracle: the adaptor flow and the HLS-C++
flow must compute the same results as each other (and as the NumPy reference
semantics in :mod:`repro.workloads`).

Memory is modelled as byte-addressable buffers; pointers are
``(buffer, offset)`` handles, so out-of-object accesses fault loudly instead
of corrupting neighbouring state.  Scalar loads/stores go through a
precompiled ``struct.Struct`` for the IR type's layout on the buffer's
``bytearray``; float ops round to the IR precision, with IEEE results
(±inf, NaN) on overflow and on libm domain and pole errors.

Execution is decode-once.  The first call of a function on an
:class:`Interpreter` turns it into per-block tuples of opcode-specialised
closures over a flat frame list: every argument, instruction result,
constant and global has a slot, and constants and globals are pre-filled in
a template each call copies.  Type facts (integer masks, load/store
layouts, GEP strides and constant offsets, the float rounder) are fixed at
decode time; phis become one parallel copy per incoming edge, and each
terminator picks the next decoded block.  Reads that dominance cannot
prove defined keep a runtime ``use of undefined value`` check, so verified
IR pays nothing for it.  ``steps`` counts executed instructions exactly as
a one-at-a-time loop does: a block's steps are added at once unless the
budget would run out inside it or it calls a defined function.
"""

from __future__ import annotations

import math
import operator
import re
import struct as _struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .analysis.cfg import reachable_blocks
from .analysis.dominators import dominator_tree
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
    Load,
    Return,
    Select,
    Store,
    Switch,
    Unreachable,
)
from ..observability import get_statistics, get_tracer
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    FloatType,
    IntegerType,
    PointerType,
    StructType,
    Type,
    VectorType,
)
from .values import (
    Argument,
    ConstantAggregate,
    ConstantAggregateZero,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    PoisonValue,
    UndefValue,
    Value,
)

__all__ = [
    "Interpreter",
    "MemoryBuffer",
    "Pointer",
    "InterpreterError",
    "run_kernel",
]


class InterpreterError(Exception):
    pass


class MemoryBuffer:
    """One allocation: a named bytearray with bounds-checked access."""

    __slots__ = ("name", "data")

    def __init__(self, size: int, name: str = "buf"):
        self.name = name
        self.data = bytearray(size)

    def __len__(self) -> int:
        return len(self.data)

    def check(self, offset: int, size: int) -> None:
        if offset < 0 or offset + size > len(self.data):
            raise InterpreterError(
                f"out-of-bounds access to {self.name}: offset {offset} size "
                f"{size} in buffer of {len(self.data)} bytes"
            )


class Pointer:
    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: MemoryBuffer, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    def added(self, delta: int) -> "Pointer":
        return Pointer(self.buffer, self.offset + delta)

    def __repr__(self) -> str:
        return f"<Pointer {self.buffer.name}+{self.offset}>"


# Little-endian memory layouts: integers by storage size, floats by kind.
_INT_LAYOUTS = {
    size: _struct.Struct(fmt) for size, fmt in ((1, "<b"), (2, "<h"), (4, "<i"), (8, "<q"))
}
_FLOAT_LAYOUTS = {
    kind: _struct.Struct(fmt) for kind, fmt in (("half", "<e"), ("float", "<f"), ("double", "<d"))
}


def _scalar_layout(type: Type) -> _struct.Struct:
    """How a load or store of ``type`` reads or writes memory."""
    layout = None
    if isinstance(type, IntegerType):
        layout = _INT_LAYOUTS.get(type.byte_size())
    elif isinstance(type, FloatType):
        layout = _FLOAT_LAYOUTS[type.kind]
    if layout is None:
        raise InterpreterError(f"no scalar layout for type {type}")
    return layout


def _trunc_div(l: int, r: int) -> int:
    """C-style truncating integer division (LLVM sdiv)."""
    q = abs(l) // abs(r)
    return -q if (l < 0) != (r < 0) else q


def _narrow_rounder(layout: _struct.Struct) -> Callable[[float], float]:
    """Rounding to the precision ``layout`` stores (``float``/``half``)."""
    pack, unpack = layout.pack, layout.unpack

    def rounded(value: float) -> float:
        try:
            return unpack(pack(value))[0]
        except OverflowError:  # rounds past the largest finite value
            return math.copysign(math.inf, value)

    return rounded


# Float kind -> rounding to that precision.
_ROUNDERS: Dict[str, Callable[[float], float]] = {
    "half": _narrow_rounder(_FLOAT_LAYOUTS["half"]),
    "float": _narrow_rounder(_FLOAT_LAYOUTS["float"]),
    "double": float,
}


def _round_float(value: float, type: FloatType) -> float:
    return _ROUNDERS[type.kind](value)


def _fdiv(l: float, r: float) -> float:
    if r:
        return l / r
    if l and not math.isnan(l):  # ±inf, signed by both operands (0 may be -0)
        return math.copysign(math.inf, l) * math.copysign(1.0, r)
    return math.nan


def _frem(l: float, r: float) -> float:
    return math.fmod(l, r) if r != 0 and not math.isinf(l) else math.nan


_FLOAT_BINOPS = {
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "fdiv": _fdiv,
    "frem": _frem,
}
# Integer ops whose Python result only needs wrapping to the IR width.
_PLAIN_INT_BINOPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}
_COMPARISONS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "gt": operator.gt,
    "ge": operator.ge,
    "lt": operator.lt,
    "le": operator.le,
}


def _integer_binop(op: str, ty: IntegerType) -> Callable[[int, int], int]:
    """``(l, r) -> result`` of ``op`` before wrapping to ``ty``."""
    if op in _PLAIN_INT_BINOPS:
        return _PLAIN_INT_BINOPS[op]
    mask, width = ty.max_unsigned, ty.width

    def sdiv(l, r):
        if r == 0:
            raise InterpreterError("sdiv by zero")
        return _trunc_div(l, r)

    def udiv(l, r):
        if r & mask == 0:
            raise InterpreterError("udiv by zero")
        return (l & mask) // (r & mask)

    def srem(l, r):
        if r == 0:
            raise InterpreterError("srem by zero")
        return l - r * _trunc_div(l, r)

    def urem(l, r):
        if r & mask == 0:
            raise InterpreterError("urem by zero")
        return (l & mask) % (r & mask)

    semantics = {
        "sdiv": sdiv,
        "udiv": udiv,
        "srem": srem,
        "urem": urem,
        "shl": lambda l, r: l << ((r & mask) % width),
        "lshr": lambda l, r: (l & mask) >> ((r & mask) % width),
        "ashr": lambda l, r: l >> ((r & mask) % width),
    }
    if op not in semantics:
        raise InterpreterError(f"unhandled binop {op}")
    return semantics[op]


# libm functions: ``math`` refuses IEEE's special results (a ValueError on a
# domain or pole error, an OverflowError on a range error); NumPy's ufuncs
# return them (NaN, ±inf), so they stand in on exactly those inputs.
_LIBM = {
    "fabs": (abs, np.abs),
    "sqrt": (math.sqrt, np.sqrt),
    "exp": (math.exp, np.exp),
    "log": (math.log, np.log),
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "floor": (math.floor, np.floor),
    "ceil": (math.ceil, np.ceil),
    "pow": (math.pow, np.power),
}


def _libm(name: str, *args: float) -> float:
    fn, ufunc = _LIBM[name]
    try:
        return fn(*args)
    except (ValueError, OverflowError):
        with np.errstate(all="ignore"):
            return float(ufunc(*args))


def _extern(name: str, args: List, type: Type) -> object:
    """Semantics of a call to the declared (external) function ``@name``."""
    libm = name[:-1] if name.endswith("f") and name[:-1] in _LIBM else name
    if libm in _LIBM:
        return _round_float(_libm(libm, *args), type)  # type: ignore
    base = name.split(".")
    if name.startswith("llvm."):
        kind = base[1]
        if kind in _LIBM:
            return _round_float(_libm(kind, *args), type)  # type: ignore
        if kind == "fmuladd" or kind == "fma":
            return _round_float(args[0] * args[1] + args[2], type)  # type: ignore
        if kind in ("minnum", "minimum"):
            return _round_float(min(args[0], args[1]), type)  # type: ignore
        if kind in ("maxnum", "maximum"):
            return _round_float(max(args[0], args[1]), type)  # type: ignore
        if kind == "copysign":
            return _round_float(math.copysign(args[0], args[1]), type)  # type: ignore
        if kind in ("smax", "smin", "umax", "umin"):
            op = max if kind.endswith("max") else min
            return type.wrap(op(args[0], args[1]))  # type: ignore
        if kind == "abs":
            return type.wrap(abs(args[0]))  # type: ignore
        if kind == "memset":
            dest: Pointer = args[0]
            value, length = int(args[1]) & 0xFF, int(args[2])
            dest.buffer.check(dest.offset, length)
            dest.buffer.data[dest.offset : dest.offset + length] = bytes(
                [value] * length
            )
            return None
        if kind == "memcpy" or kind == "memmove":
            dest, src, length = args[0], args[1], int(args[2])
            dest.buffer.check(dest.offset, length)
            src.buffer.check(src.offset, length)
            chunk = bytes(src.buffer.data[src.offset : src.offset + length])
            dest.buffer.data[dest.offset : dest.offset + length] = chunk
            return None
        if kind in ("lifetime", "assume", "dbg", "expect"):
            if kind == "expect":
                return args[0]
            return None
    raise InterpreterError(f"no semantics for external @{name}")


def _zero_value(type: Type) -> object:
    if isinstance(type, IntegerType):
        return 0
    if isinstance(type, FloatType):
        return 0.0
    if isinstance(type, PointerType):
        return None
    if isinstance(type, ArrayType):
        return [_zero_value(type.element) for _ in range(type.count)]
    if isinstance(type, StructType):
        return [_zero_value(e) for e in type.elements]
    if isinstance(type, VectorType):
        return [_zero_value(type.element) for _ in range(type.count)]
    raise InterpreterError(f"no zero value for type {type}")


def _deep_copy(value):
    if isinstance(value, list):
        return [_deep_copy(v) for v in value]
    return value


def _coerce(value, type: Type):
    if isinstance(type, IntegerType) and isinstance(value, (int, np.integer)):
        return type.wrap(int(value))
    if isinstance(type, FloatType) and isinstance(value, (int, float, np.floating)):
        return _round_float(float(value), type)
    return value


def _int_bounds(ty: IntegerType) -> Tuple[int, int, int]:
    """``(mask, max_signed, modulus)``: ``v & mask``, less ``modulus`` when
    above ``max_signed``, wraps ``v`` to ``ty`` (``IntegerType.wrap``)."""
    return ty.max_unsigned, ty.max_signed, 1 << ty.width


def _pointer_identity(value) -> Optional[Tuple[int, int]]:
    return (id(value.buffer), value.offset) if isinstance(value, Pointer) else None


def buffer_from_numpy(array: np.ndarray, name: str = "arg") -> MemoryBuffer:
    buf = MemoryBuffer(array.nbytes, name)
    buf.data[:] = np.ascontiguousarray(array).tobytes()
    return buf


def numpy_from_buffer(buf: MemoryBuffer, dtype, shape) -> np.ndarray:
    return np.frombuffer(buf.data, dtype=dtype).reshape(shape).copy()


# -- decoded code -----------------------------------------------------------------

#: Slot content before its definition runs.  Never a value.
_UNSET = object()

#: Frame slot 0 receives the return value and slot 1 holds the running
#: Interpreter; arguments follow from slot 2.  Keeping the interpreter in
#: the frame, and naming blocks by index, leaves decoded code free of
#: reference cycles, so it dies with its Interpreter by reference counting.
_RESULT, _INTERP = 0, 1

_Op = Callable[[list], object]


class _Block:
    """A decoded basic block: non-phi body closures, then the terminator,
    which returns the next block's index (``None`` on return)."""

    __slots__ = ("ops", "term", "steps", "counted")

    def __init__(self) -> None:
        # All four are filled in by _Decoder._fill.
        self.ops: Tuple[_Op, ...] = ()
        self.term: Optional[_Op] = None
        # Instructions a full pass executes (the body plus the terminator).
        self.steps = 0
        # Calls a defined function, so steps must be counted one at a time
        # (the callee's steps land between the caller's).
        self.counted = False


class _Code:
    """One decoded function."""

    __slots__ = ("function", "template", "params", "blocks", "entry_phis")

    def __init__(self, function: Function, template: list, blocks: List[_Block]) -> None:
        self.function = function
        self.template = template
        self.params = [a.type for a in function.arguments]
        self.blocks = blocks  # the entry block first
        self.entry_phis = bool(function.entry.phis())


def _return(frame: list) -> None:
    return None


def _raiser(message: str) -> _Op:
    def fault(frame: list):
        raise InterpreterError(message)

    return fault


def _guarded(op: _Op, checks: List[Tuple[int, Value]]) -> _Op:
    """``op``, after checking the reads dominance could not prove defined."""

    def guarded(frame: list):
        for slot, value in checks:
            if frame[slot] is _UNSET:
                raise InterpreterError(f"use of undefined value {value!r}")
        return op(frame)

    return guarded


class _Decoder:
    """Decodes one function for one :class:`Interpreter` (module docstring).

    Each ``_<opcode>`` method reads its operands through :meth:`use` in the
    order the instruction evaluates them, so the undefined-value checks it
    collects fire in that order, and returns the instruction's closure.
    """

    def __init__(self, fn: Function, globals: Dict[str, Pointer]) -> None:
        self.fn = fn
        self.globals = globals
        self.template: list = [None, None]  # _RESULT, _INTERP
        self.slots: Dict[int, int] = {}
        for arg in fn.arguments:
            self.slot(arg)
        self.blocks: List[_Block] = []
        self.index: Dict[int, int] = {}  # id(BasicBlock) -> position in blocks
        self.pending: List[Tuple[BasicBlock, _Block]] = []
        self.site: Tuple[BasicBlock, int] = (fn.entry, 0)
        self.checks: List[Tuple[int, Value]] = []
        self._analyse()

    def _analyse(self) -> None:
        """Dominance facts for :meth:`defined`.  They describe the blocks
        the interpreter runs only when every terminator ends its block and
        branches inside the function; otherwise every read is checked."""
        fn = self.fn
        self.dominators = None
        self.reachable: set = set()
        self.position: Dict[int, Tuple[BasicBlock, int]] = {}
        ids = {id(b) for b in fn.blocks}
        for block in fn.blocks:
            last = len(block.instructions) - 1
            for i, inst in enumerate(block.instructions):
                if inst.is_terminator and (
                    i != last or any(id(s) not in ids for s in inst.successors)
                ):
                    return
        self.dominators = dominator_tree(fn)
        self.reachable = reachable_blocks(fn)
        self.position = {
            id(inst): (block, i)
            for block in fn.blocks
            for i, inst in enumerate(block.instructions)
        }

    def defined(self, value: Value, block: BasicBlock, index: int) -> bool:
        """Whether every read of ``value`` by instruction ``index`` of
        ``block`` (``len(block.instructions)`` for a phi reading it on an
        edge out of ``block``) finds its slot set — the verifier's SSA
        dominance rule, with definitions in unreachable blocks never set."""
        if self.template[self.slots[id(value)]] is not _UNSET:
            return True  # a constant, global or function
        if value.type.is_void:
            return False  # a store or terminator: never sets a slot
        if isinstance(value, Argument):
            # A vararg callee may be passed fewer arguments than it names.
            return value.parent is self.fn and not self.fn.function_type.vararg
        if id(value) not in self.position:
            return False
        def_block, def_index = self.position[id(value)]
        if id(def_block) not in self.reachable:
            return False
        if def_block is block:
            return def_index < index
        return self.dominators.dominates(def_block, block)

    def slot(self, value: Value) -> int:
        slot = self.slots.get(id(value))
        if slot is None:
            initial = self._initial(value)
            slot = self.slots[id(value)] = len(self.template)
            self.template.append(initial)
        return slot

    def _initial(self, value: Value) -> object:
        """Template content: the value of a constant, global or function;
        ``_UNSET`` for what a call defines."""
        if isinstance(value, (ConstantInt, ConstantFloat)):
            return value.value
        if isinstance(value, ConstantPointerNull):
            return None
        if isinstance(value, (UndefValue, PoisonValue, ConstantAggregateZero)):
            return _zero_value(value.type)
        if isinstance(value, ConstantAggregate):
            return [self._initial(m) for m in value.members]
        if isinstance(value, GlobalVariable):
            return self.globals.get(value.name, _UNSET)
        if isinstance(value, Function):
            return value
        return _UNSET

    def use(self, value: Value) -> int:
        """Slot of an operand the current instruction reads."""
        slot = self.slot(value)
        if not self.defined(value, *self.site):
            self.checks.append((slot, value))
        return slot

    # -- blocks -------------------------------------------------------------------
    def decode(self) -> _Code:
        # Phis of one block take consecutive slots: one slice copy per edge.
        for block in self.fn.blocks:
            for phi in block.phis():
                self.slot(phi)
        self.block(self.fn.entry)
        while self.pending:
            self._fill(*self.pending.pop())
        return _Code(self.fn, self.template, self.blocks)

    def block(self, bb: BasicBlock) -> int:
        """Index of ``bb``'s decoded block, queued for decoding if new."""
        index = self.index.get(id(bb))
        if index is None:
            index = self.index[id(bb)] = len(self.blocks)
            self.blocks.append(_Block())
            self.pending.append((bb, self.blocks[index]))
        return index

    def _fill(self, bb: BasicBlock, block: _Block) -> None:
        instructions = bb.instructions
        first = len(bb.phis())
        ops = []
        block.term = _raiser(f"block %{bb.name} fell through")
        for index in range(first, len(instructions)):
            inst = instructions[index]
            self.site = (bb, index)
            block.steps += 1
            if inst.is_terminator:
                block.term = self._decode(inst)
                break
            ops.append(self._decode(inst))
            callee = inst.callee if isinstance(inst, Call) else None
            if isinstance(callee, Function) and not callee.is_declaration:
                block.counted = True
        block.ops = tuple(ops)

    def _decode(self, inst) -> _Op:
        self.checks = []
        method = _DECODERS.get(type(inst))
        try:
            if method is None:
                raise InterpreterError(f"no semantics for {inst!r}")
            op = method(self, inst)
        except InterpreterError as exc:
            op = _raiser(str(exc))
        return _guarded(op, self.checks) if self.checks else op

    def edge(self, target) -> Tuple[Optional[int], Optional[_Op]]:
        """``(block index, moves)`` for the branch from the current block to
        ``target``: ``moves`` copies the incoming values into ``target``'s
        phis, all read before any is written, or is None without phis."""
        pred = self.site[0]
        if not isinstance(target, BasicBlock):
            return None, _raiser(f"branch to non-block {target!r}")
        phis = target.phis()
        block = self.block(target)
        if not phis:
            return block, None
        end = len(pred.instructions)
        dsts, srcs, checks = [], [], []
        missing = None
        try:
            for phi in phis:
                incoming = phi.incoming_value_for(pred)
                if incoming is None:
                    missing = f"phi {phi.ref()} missing incoming for %{pred.name}"
                    break
                srcs.append(self.slot(incoming))
                dsts.append(self.slot(phi))
                checks.append(None if self.defined(incoming, pred, end) else incoming)
        except InterpreterError as exc:
            return block, _raiser(str(exc))
        if (
            missing is None
            and all(c is None for c in checks)
            and dsts == list(range(dsts[0], dsts[0] + len(dsts)))
        ):
            return block, _parallel_copy(dsts, srcs)

        def moves(frame: list) -> None:
            values = []
            for src, value in zip(srcs, checks):
                if value is not None and frame[src] is _UNSET:
                    raise InterpreterError(f"use of undefined value {value!r}")
                values.append(frame[src])
            if missing is not None:
                raise InterpreterError(missing)
            for dst, v in zip(dsts, values):
                frame[dst] = v

        return block, moves

    # -- instructions ---------------------------------------------------------------
    def _binop(self, inst: BinaryOperator) -> _Op:
        a, b, d = self.use(inst.lhs), self.use(inst.rhs), self.slot(inst)
        if inst.opcode in _FLOAT_BINOPS:
            fn, kind = _FLOAT_BINOPS[inst.opcode], inst.type.kind
            if kind == "double":

                def double_binop(f):
                    f[d] = float(fn(f[a], f[b]))

                return double_binop
            # The hottest float ops: _narrow_rounder, inlined.
            pack, unpack = _FLOAT_LAYOUTS[kind].pack, _FLOAT_LAYOUTS[kind].unpack

            def narrow_binop(f):
                v = fn(f[a], f[b])
                try:
                    f[d] = unpack(pack(v))[0]
                except OverflowError:
                    f[d] = math.copysign(math.inf, v)

            return narrow_binop
        ty: IntegerType = inst.type  # type: ignore[assignment]
        fn = _integer_binop(inst.opcode, ty)
        mask, smax, modulus = _int_bounds(ty)

        def integer_binop(f):
            v = fn(f[a], f[b]) & mask
            f[d] = v - modulus if v > smax else v

        return integer_binop

    def _icmp(self, inst: ICmp) -> _Op:
        a, b, d = self.use(inst.lhs), self.use(inst.rhs), self.slot(inst)
        pred = inst.predicate
        if isinstance(inst.lhs.type, PointerType):
            if pred not in ("eq", "ne"):
                return _raiser("ordered pointer comparison unsupported")
            same = _COMPARISONS[pred]

            def pointer_icmp(f):
                f[d] = 1 if same(_pointer_identity(f[a]), _pointer_identity(f[b])) else 0

            return pointer_icmp
        if pred in ("eq", "ne"):
            cmp = _COMPARISONS[pred]
        else:
            cmp = _COMPARISONS[pred[1:]]
            if pred[0] == "u":
                mask = inst.lhs.type.max_unsigned

                def unsigned_icmp(f):
                    f[d] = 1 if cmp(f[a] & mask, f[b] & mask) else 0

                return unsigned_icmp

        def signed_icmp(f):
            f[d] = 1 if cmp(f[a], f[b]) else 0

        return signed_icmp

    def _fcmp(self, inst: FCmp) -> _Op:
        a, b, d = self.use(inst.lhs), self.use(inst.rhs), self.slot(inst)
        pred = inst.predicate
        # (comparison of ordered operands, result when either is NaN)
        if pred in ("false", "true", "ord", "uno"):
            always = pred in ("true", "ord")
            cmp, unordered = (lambda l, r: always), int(pred in ("true", "uno"))
        else:
            cmp, unordered = _COMPARISONS[pred[1:]], int(pred[0] == "u")
        isnan = math.isnan

        def fcmp(f):
            l, r = f[a], f[b]
            f[d] = unordered if isnan(l) or isnan(r) else 1 if cmp(l, r) else 0

        return fcmp

    def _alloca(self, inst: Alloca) -> _Op:
        count = None if inst.array_size is None else self.use(inst.array_size)
        d = self.slot(inst)
        size, name = inst.allocated_type.byte_size(), inst.name or "alloca"

        def alloca(f):
            n = 1 if count is None else int(f[count])
            f[d] = Pointer(MemoryBuffer(size * n, name))

        return alloca

    def _load(self, inst: Load) -> _Op:
        p, d = self.use(inst.pointer), self.slot(inst)
        ty = inst.type
        layout = _scalar_layout(ty)
        size, unpack_from = layout.size, layout.unpack_from
        # Integers narrower than their storage (i1) wrap what memory holds.
        wrap = ty.wrap if isinstance(ty, IntegerType) and ty.width != 8 * size else None

        def load(f):
            ptr = f[p]
            if not isinstance(ptr, Pointer):
                raise InterpreterError(f"load through non-pointer {ptr!r}")
            buf, off = ptr.buffer, ptr.offset
            if off < 0 or off + size > len(buf.data):
                buf.check(off, size)
            f[d] = unpack_from(buf.data, off)[0]

        if wrap is None:
            return load

        def narrow_load(f):
            load(f)
            f[d] = wrap(f[d])

        return narrow_load

    def _store(self, inst: Store) -> _Op:
        p, v = self.use(inst.pointer), self.use(inst.value)
        ty = inst.value.type
        layout = _scalar_layout(ty)
        size, pack_into = layout.size, layout.pack_into
        if isinstance(ty, IntegerType):
            mask, smax, modulus = _int_bounds(ty)

            def stored(value):
                value = int(value) & mask
                return value - modulus if value > smax else value

        else:
            stored = float

        def store(f):
            ptr = f[p]
            if not isinstance(ptr, Pointer):
                raise InterpreterError(f"store through non-pointer {ptr!r}")
            buf, off = ptr.buffer, ptr.offset
            if off < 0 or off + size > len(buf.data):
                buf.check(off, size)
            pack_into(buf.data, off, stored(f[v]))

        return store

    def _gep(self, inst: GetElementPtr) -> _Op:
        base = self.use(inst.pointer)
        indices = inst.indices
        index_slots = [self.use(i) for i in indices]
        d = self.slot(inst)
        # offset = constant + sum(index * stride) over the non-constant indices
        constant, terms = 0, []
        ty: Type = inst.source_type
        for k, (index, slot) in enumerate(zip(indices, index_slots)):
            if k > 0:
                if isinstance(ty, StructType):
                    if not isinstance(index, ConstantInt):
                        raise InterpreterError(f"gep index {k} into {ty} is not constant")
                    constant += sum(e.byte_size() for e in ty.elements[: index.value])
                    ty = ty.elements[index.value]
                    continue
                if not isinstance(ty, (ArrayType, VectorType)):
                    raise InterpreterError(f"gep index {k} into scalar {ty}")
                ty = ty.element
            stride = ty.byte_size()
            if isinstance(index, ConstantInt):
                constant += index.value * stride
            else:
                terms.append((slot, stride))

        # One variant per count of non-constant indices, the common ones
        # unrolled.
        if len(terms) == 1:
            ((i, si),) = terms

            def gep(f):
                ptr = f[base]
                if not isinstance(ptr, Pointer):
                    raise InterpreterError(f"gep through non-pointer {ptr!r}")
                f[d] = Pointer(ptr.buffer, ptr.offset + constant + f[i] * si)

        elif len(terms) == 2:
            (i, si), (j, sj) = terms

            def gep(f):
                ptr = f[base]
                if not isinstance(ptr, Pointer):
                    raise InterpreterError(f"gep through non-pointer {ptr!r}")
                f[d] = Pointer(ptr.buffer, ptr.offset + constant + f[i] * si + f[j] * sj)

        else:

            def gep(f):
                ptr = f[base]
                if not isinstance(ptr, Pointer):
                    raise InterpreterError(f"gep through non-pointer {ptr!r}")
                offset = constant + sum(f[i] * s for i, s in terms)
                f[d] = Pointer(ptr.buffer, ptr.offset + offset)

        return gep

    def _cast(self, inst: Cast) -> _Op:
        v, d = self.use(inst.value), self.slot(inst)
        op, to = inst.opcode, inst.type
        if op == "bitcast":  # pointers only in our subset
            return _move(v, d)
        if op == "inttoptr":
            return _raiser("inttoptr has no meaning in the buffer memory model")
        if isinstance(to, FloatType):
            rounded = _ROUNDERS[to.kind]
            if op in ("fptrunc", "fpext"):
                convert = float
            elif op == "sitofp":
                convert = lambda x: float(int(x))
            elif op == "uitofp":
                src_mask = inst.value.type.max_unsigned
                convert = lambda x: float(int(x) & src_mask)
            else:
                raise InterpreterError(f"unhandled cast {op}")

            def to_float(f):
                f[d] = rounded(convert(f[v]))

            return to_float
        if op in ("sext", "trunc"):
            convert = int
        elif op == "zext":
            src_mask = inst.value.type.max_unsigned
            convert = lambda x: int(x) & src_mask
        elif op in ("fptosi", "fptoui"):
            unsigned = op == "fptoui"

            def convert(x):
                if not math.isfinite(x):
                    # LLVM makes the result poison; fault instead of inventing one.
                    raise InterpreterError(f"{op} of non-finite value {x!r}")
                return max(0, int(x)) if unsigned else int(x)

        elif op == "ptrtoint":
            convert = lambda x: id(x.buffer) + x.offset if isinstance(x, Pointer) else 0
        else:
            raise InterpreterError(f"unhandled cast {op}")
        mask, smax, modulus = _int_bounds(to)

        def to_integer(f):
            x = convert(f[v]) & mask
            f[d] = x - modulus if x > smax else x

        return to_integer

    def _select(self, inst: Select) -> _Op:
        c, d = self.use(inst.condition), self.slot(inst)
        # Only the chosen arm is read, so only it may fault.
        arms = []
        for value in (inst.true_value, inst.false_value):
            slot = self.slot(value)
            arms.append((slot, None if self.defined(value, *self.site) else value))
        chosen, other = arms

        def select(f):
            slot, value = chosen if f[c] else other
            if value is not None and f[slot] is _UNSET:
                raise InterpreterError(f"use of undefined value {value!r}")
            f[d] = f[slot]

        return select

    def _call_inst(self, inst: Call) -> _Op:
        args = [self.use(a) for a in inst.args]
        d = self.slot(inst)
        callee = inst.callee
        if isinstance(callee, Function) and not callee.is_declaration:

            def call(f):
                interp = f[_INTERP]
                f[d] = interp._call(interp._code(callee), [f[s] for s in args])

            return call
        name, ty = callee.name, inst.type

        def external(f):
            f[d] = _extern(name, [f[s] for s in args], ty)

        return external

    def _freeze(self, inst: Freeze) -> _Op:
        return _move(self.use(inst.value), self.slot(inst))

    def _extract_value(self, inst: ExtractValue) -> _Op:
        a, d = self.use(inst.aggregate), self.slot(inst)
        path = inst.indices

        def extract_value(f):
            agg = f[a]
            for i in path:
                agg = agg[i]
            f[d] = agg

        return extract_value

    def _insert_value(self, inst: InsertValue) -> _Op:
        a, v, d = self.use(inst.aggregate), self.use(inst.value), self.slot(inst)
        *path, last = inst.indices

        def insert_value(f):
            # Aggregate constants sit in the frame template, shared by every
            # frame and call: this copy before the write is what keeps them
            # intact.  Nothing else writes into an aggregate.
            agg = _deep_copy(f[a])
            target = agg
            for i in path:
                target = target[i]
            target[last] = f[v]
            f[d] = agg

        return insert_value

    # -- terminators ------------------------------------------------------------------
    def _ret(self, inst: Return) -> _Op:
        if inst.value is None:
            return _return
        v = self.use(inst.value)

        def ret(f):
            f[_RESULT] = f[v]

        return ret

    def _br(self, inst: Branch) -> _Op:
        block, moves = self.edge(inst.target)
        if moves is None:
            return lambda f: block

        def br(f):
            moves(f)
            return block

        return br

    def _cond_br(self, inst: CondBranch) -> _Op:
        c = self.use(inst.condition)
        taken, not_taken = self.edge(inst.true_target), self.edge(inst.false_target)
        if taken[1] is None and not_taken[1] is None:
            t, e = taken[0], not_taken[0]

            def cond_br(f):
                return t if f[c] else e

            return cond_br

        def cond_br_with_phis(f):
            block, moves = taken if f[c] else not_taken
            if moves is not None:
                moves(f)
            return block

        return cond_br_with_phis

    def _switch(self, inst: Switch) -> _Op:
        v = self.use(inst.value)
        default = self.edge(inst.default)
        cases: Dict[int, tuple] = {}
        for const, target in inst.cases:
            if const.value not in cases:  # the first matching case wins
                cases[const.value] = self.edge(target)

        def switch(f):
            block, moves = cases.get(f[v], default)
            if moves is not None:
                moves(f)
            return block

        return switch

    def _unreachable(self, inst: Unreachable) -> _Op:
        return _raiser(f"reached 'unreachable' in @{self.fn.name}")


_DECODERS = {
    BinaryOperator: _Decoder._binop,
    ICmp: _Decoder._icmp,
    FCmp: _Decoder._fcmp,
    Alloca: _Decoder._alloca,
    Load: _Decoder._load,
    Store: _Decoder._store,
    GetElementPtr: _Decoder._gep,
    Cast: _Decoder._cast,
    Select: _Decoder._select,
    Call: _Decoder._call_inst,
    Freeze: _Decoder._freeze,
    ExtractValue: _Decoder._extract_value,
    InsertValue: _Decoder._insert_value,
    Return: _Decoder._ret,
    Branch: _Decoder._br,
    CondBranch: _Decoder._cond_br,
    Switch: _Decoder._switch,
    Unreachable: _Decoder._unreachable,
}


def _move(src: int, dst: int) -> _Op:
    def move(f):
        f[dst] = f[src]

    return move


def _parallel_copy(dsts: List[int], srcs: List[int]) -> _Op:
    """Copy ``srcs`` into the consecutive slots ``dsts``, all read first."""
    if len(dsts) == 1:
        return _move(srcs[0], dsts[0])
    read = operator.itemgetter(*srcs)
    lo, hi = dsts[0], dsts[-1] + 1

    def copy_slice(f):
        f[lo:hi] = read(f)

    return copy_slice


class Interpreter:
    def __init__(self, module: Module, max_steps: int = 50_000_000):
        self.module = module
        self.max_steps = max_steps
        self.steps = 0
        self.globals: Dict[str, Pointer] = {}
        # Decoded functions.  They live here rather than on the Function, so
        # nothing needs invalidating, nothing outlives this interpreter and
        # pickled modules are unchanged; the module must not be edited
        # while an Interpreter runs it.
        self._decoded: Dict[Function, _Code] = {}
        self._init_globals()

    def _init_globals(self) -> None:
        for g in self.module.globals:
            buf = MemoryBuffer(g.value_type.byte_size(), f"@{g.name}")
            if g.initializer is not None:
                self._store_constant(buf, 0, g.value_type, g.initializer)
            self.globals[g.name] = Pointer(buf, 0)

    def _store_constant(self, buf: MemoryBuffer, offset: int, type: Type, const) -> None:
        if isinstance(const, ConstantAggregateZero) or isinstance(
            const, (UndefValue, PoisonValue)
        ):
            return  # buffer already zeroed
        if isinstance(const, ConstantInt):
            layout = _scalar_layout(type)
            value = const.value if type.bit_width() > 1 else const.value & 1
            buf.data[offset : offset + layout.size] = layout.pack(value)
            return
        if isinstance(const, ConstantFloat):
            layout = _scalar_layout(type)
            buf.data[offset : offset + layout.size] = layout.pack(const.value)
            return
        if isinstance(const, ConstantAggregate):
            if isinstance(type, ArrayType):
                elem_size = type.element.byte_size()
                for i, member in enumerate(const.members):
                    self._store_constant(buf, offset + i * elem_size, type.element, member)
                return
            if isinstance(type, StructType):
                off = offset
                for member, etype in zip(const.members, type.elements):
                    self._store_constant(buf, off, etype, member)
                    off += etype.byte_size()
                return
        raise InterpreterError(f"cannot materialise constant {const!r}")

    # -- public API ------------------------------------------------------------
    def run(self, function: Union[str, Function], args: Sequence) -> object:
        """Execute ``function`` with ``args``.

        Arguments may be Python scalars (for int/float params), ``Pointer``,
        ``MemoryBuffer`` or ``numpy.ndarray``.  An ndarray is copied into a
        private buffer, so the caller never sees the function's writes to
        it: pass a ``MemoryBuffer`` and read it back with
        :func:`numpy_from_buffer`, or use :func:`run_kernel`, which returns
        the written arrays.
        """
        fn = (
            self.module.get_function(function)
            if isinstance(function, str)
            else function
        )
        if fn is None or fn.is_declaration:
            raise InterpreterError(f"no defined function {function!r}")
        if len(args) != len(fn.arguments):
            raise InterpreterError(
                f"@{fn.name} expects {len(fn.arguments)} args, got {len(args)}"
            )
        converted = []
        for arg, param in zip(args, fn.arguments):
            if isinstance(arg, np.ndarray):
                converted.append(Pointer(buffer_from_numpy(arg, param.name)))
            elif isinstance(arg, MemoryBuffer):
                converted.append(Pointer(arg, 0))
            else:
                converted.append(arg)
        # A returned aggregate may be a template constant: hand out a copy.
        return _deep_copy(self._call(self._code(fn), converted))

    # -- execution engine ----------------------------------------------------------
    def _code(self, fn: Function) -> _Code:
        code = self._decoded.get(fn)
        if code is None:
            code = self._decoded[fn] = _Decoder(fn, self.globals).decode()
        return code

    def _call(self, code: _Code, args: Sequence) -> object:
        frame = code.template[:]
        frame[_INTERP] = self
        for slot, (type, value) in enumerate(zip(code.params, args), _INTERP + 1):
            frame[slot] = _coerce(value, type)
        if code.entry_phis:
            raise InterpreterError(
                f"phi in entry-reached block %{code.function.entry.name} "
                "with no predecessor"
            )
        blocks = code.blocks
        block = blocks[0]
        while True:
            n = block.steps
            if block.counted or self.steps + n > self.max_steps:
                self._run_counted(block, frame, code)
            else:
                self.steps += n
                try:
                    for op in block.ops:
                        op(frame)
                except Exception:
                    # Count only the instructions that ran, the faulting one included.
                    self.steps -= n - block.ops.index(op) - 1
                    raise
            index = block.term(frame)
            if index is None:
                return frame[_RESULT]
            block = blocks[index]

    def _run_counted(self, block: _Block, frame: list, code: _Code) -> None:
        for op in block.ops:
            self._step(code)
            op(frame)
        if block.steps > len(block.ops):  # the terminator's step
            self._step(code)

    def _step(self, code: _Code) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError(
                f"step budget exceeded ({self.max_steps}); "
                f"possible infinite loop in @{code.function.name}"
            )


_DESCRIPTOR_FIELD = re.compile(
    r"^(?P<base>.+?)_(?:aligned|offset|size(?P<size>\d+)|stride(?P<stride>\d+))$"
)


def run_kernel(
    module: Module,
    name: str,
    arrays: Dict[str, np.ndarray],
    scalars: Optional[Dict[str, object]] = None,
    max_steps: int = 50_000_000,
) -> Dict[str, np.ndarray]:
    """Run a kernel whose pointer args are named arrays; returns the (possibly
    mutated) arrays keyed by argument name.

    ``arrays`` maps argument name → numpy array; ``scalars`` maps argument
    name → Python scalar.  An argument in neither must be a memref
    descriptor field of an array ``X`` — ``X_aligned``, ``X_offset``,
    ``X_sizeN`` or ``X_strideN``, the signature MLIR lowering gives the
    pre-adaptor module — and is filled from the array's shape (row-major,
    contiguous, zero offset), so one call runs a kernel before and after
    the adaptor.  Any other argument raises.
    """
    scalars = scalars or {}
    fn = module.get_function(name)
    if fn is None:
        raise InterpreterError(f"no function @{name} in module")
    interp = Interpreter(module, max_steps=max_steps)
    buffers: Dict[str, MemoryBuffer] = {}

    def pointer(key: str) -> Pointer:
        if key not in buffers:
            buffers[key] = buffer_from_numpy(arrays[key], key)
        return Pointer(buffers[key], 0)

    call_args: List[object] = []
    for arg in fn.arguments:
        if arg.name in arrays:
            call_args.append(pointer(arg.name))
            continue
        if arg.name in scalars:
            call_args.append(scalars[arg.name])
            continue
        field = _DESCRIPTOR_FIELD.match(arg.name)
        if field is None or field["base"] not in arrays:
            raise InterpreterError(
                f"argument {arg.name!r} of @{name} not supplied "
                f"(have arrays={list(arrays)}, scalars={list(scalars)})"
            )
        base, size, stride = field.group("base", "size", "stride")
        shape = arrays[base].shape
        if size is not None:
            call_args.append(shape[int(size)])
        elif stride is not None:
            call_args.append(math.prod(shape[int(stride) + 1 :]))
        elif arg.name.endswith("_aligned"):
            call_args.append(pointer(base))
        else:
            call_args.append(0)  # X_offset
    with get_tracer().span(f"interpret:{name}", category="interpreter") as span:
        interp.run(fn, call_args)
        span.set(steps=interp.steps)
    registry = get_statistics()
    registry.bump("interpreter", "runs")
    registry.bump("interpreter", "steps", interp.steps)
    return {
        key: numpy_from_buffer(buf, arrays[key].dtype, arrays[key].shape)
        for key, buf in buffers.items()
    }
