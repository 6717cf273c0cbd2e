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

Execution is compile-once.  The first call of a function on an
:class:`Interpreter` writes the function as the source of one Python
function (:class:`_Emitter`), ``compile``s it and keeps it for that
interpreter.  SSA values become locals and integer constants literals.  A
pointer that is only dereferenced stays split: its root (an argument,
global, ``alloca``, call result or other non-GEP value) caches its buffer,
data and length once, and a GEP result is a plain integer offset, so address
arithmetic allocates nothing; a ``Pointer`` is built only where one escapes.
Blocks run from one ``while True`` dispatch on a block index, blocks of
deeper loops tested first, and a block with one incoming edge runs inline at
that edge.  Phis are one tuple assignment per edge.  Reads that dominance
cannot prove defined keep a runtime ``use of undefined value`` check, so
verified IR pays nothing for it.

``steps`` counts executed instructions exactly as a one-at-a-time loop does.
Each straight-line run of a block (split after every call to a defined
function, so a callee's steps land between its caller's) adds its count at
once; a fault rewinds it to the faulting instruction through the line table
the emitter records; and a run the budget cannot fit executes the
instructions that fit, from source emitted on demand, before the budget
error.
"""

from __future__ import annotations

import math
import re
import struct as _struct
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .analysis.cfg import reachable_blocks
from .analysis.dominators import dominator_tree
from .analysis.loops import LoopInfo
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
    Phi,
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


def _integer_binop(op: str, ty: IntegerType) -> Callable[[int, int], int]:
    """``(l, r) -> result`` of a division or shift ``op`` before wrapping to
    ``ty`` (the other integer ops are Python operators)."""
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
            if kind[0] == "u":  # compare the unsigned readings of the operands
                mask = type.max_unsigned  # type: ignore
                return type.wrap(op(args[0] & mask, args[1] & mask))  # type: ignore
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


def _pointer_identity(value) -> Optional[Tuple[int, int]]:
    return (id(value.buffer), value.offset) if isinstance(value, Pointer) else None


def buffer_from_numpy(array: np.ndarray, name: str = "arg") -> MemoryBuffer:
    buf = MemoryBuffer(array.nbytes, name)
    buf.data[:] = np.ascontiguousarray(array).tobytes()
    return buf


def numpy_from_buffer(buf: MemoryBuffer, dtype, shape) -> np.ndarray:
    return np.frombuffer(buf.data, dtype=dtype).reshape(shape).copy()


# -- generated code -----------------------------------------------------------------

#: What a local holds before its definition runs.  Never a value.
_UNSET = object()

#: ``co_filename`` of generated code: how a fault finds its frame.
_SOURCE = "<ir>"

#: Most arms one ``if``/``elif`` chain gets.  CPython's compiler recurses
#: once per ``elif`` and fails near 3,000 of them, so longer dispatches nest.
_CHAIN = 64

#: Most blocks inlined one inside the next, and deepest indentation an
#: inlined block starts at, before the next gets a dispatch arm of its own.
#: They bound the emitter's recursion and the source's nesting (CPython
#: stops near 100 indentation levels).
_MAX_INLINE = 32
_MAX_DEPTH = 40

# Python spelling of the integer and float comparisons.
_RELATIONS = {"eq": "==", "ne": "!=", "gt": ">", "ge": ">=", "lt": "<", "le": "<="}
_FCMP = {
    "false": "False",
    "true": "True",
    "oeq": "{a} == {b}",
    "ogt": "{a} > {b}",
    "oge": "{a} >= {b}",
    "olt": "{a} < {b}",
    "ole": "{a} <= {b}",
    "one": "({a} < {b} or {a} > {b})",
    "ord": "({a} == {a} and {b} == {b})",
    "ueq": "not ({a} < {b} or {a} > {b})",
    "ugt": "not {a} <= {b}",
    "uge": "not {a} < {b}",
    "ult": "not {a} >= {b}",
    "ule": "not {a} > {b}",
    "une": "{a} != {b}",
    "uno": "({a} != {a} or {b} != {b})",
}
_FLOAT_BINOPS = {
    "fadd": "{} + {}",
    "fsub": "{} - {}",
    "fmul": "{} * {}",
    "fdiv": "_fdiv({}, {})",
    "frem": "_frem({}, {})",
}
_INT_OPERATORS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}


def _raise(message: str):
    raise InterpreterError(message)


def _checked(value, message: str):
    """``value``, unless it is still unset (a select arm)."""
    if value is _UNSET:
        raise InterpreterError(message)
    return value


def _not_pointer(op: str, value):
    raise InterpreterError(f"{op} through non-pointer {value!r}")


class _NonPointer:
    """The offset of a root that is not a pointer: a GEP from it adds to
    this, which raises the GEP's fault, so GEPs need no check of their own."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __add__(self, other):
        _not_pointer("gep", self.value)


def _bad_access(op: str, value, size: int):
    """The fault of a load or store straight through ``value``: it is not a
    pointer, or the access is out of bounds."""
    if not isinstance(value, Pointer):
        _not_pointer(op, value)
    value.buffer.check(value.offset, size)


def _fp_to_int(x, op: str) -> int:
    if not math.isfinite(x):
        # LLVM makes the result poison; fault instead of inventing one.
        raise InterpreterError(f"{op} of non-finite value {x!r}")
    return max(0, int(x)) if op == "fptoui" else int(x)


def _ptr_to_int(x) -> int:
    return id(x.buffer) + x.offset if isinstance(x, Pointer) else 0


def _f32_cell():
    """A one-float cell: storing a double rounds it to float as the C cast
    does (±inf past the largest float), reading it back gives the double."""
    return memoryview(bytearray(4)).cast("f")


#: What every generated function's namespace starts with.
_RUNTIME = {
    "_UNSET": _UNSET,
    "_P": Pointer,
    "_MB": MemoryBuffer,
    "_raise": _raise,
    "_checked": _checked,
    "_NonPointer": _NonPointer,
    "_bad_access": _bad_access,
    "_fp_to_int": _fp_to_int,
    "_ptr_to_int": _ptr_to_int,
    "_pid": _pointer_identity,
    "_extern": _extern,
    "_fdiv": _fdiv,
    "_frem": _frem,
    "_deep_copy": _deep_copy,
    "_f32_cell": _f32_cell,
    "_round_half": _ROUNDERS["half"],
}
for _layout in (*_INT_LAYOUTS.values(), *_FLOAT_LAYOUTS.values()):
    _RUNTIME["_ld_" + _layout.format[1]] = _layout.unpack_from
    _RUNTIME["_st_" + _layout.format[1]] = _layout.pack_into

#: One emitted line: indentation level, text, and how many of its run's
#: counted steps come after its instruction (what a fault there rewinds).
_Line = Tuple[int, str, int]


def _calls_defined(inst) -> bool:
    callee = inst.callee if isinstance(inst, Call) else None
    return isinstance(callee, Function) and not callee.is_declaration


def _dispatch(selector: str, arms: List[List[_Line]], depth: int, base: int = 0) -> List[_Line]:
    """``if selector == base: arms[0] elif ...`` at ``depth``, arm bodies
    indented relative to it.  Past :data:`_CHAIN` arms the first chunk stays
    one flat chain (the hottest arms) and the rest is bisected."""
    lines: List[_Line] = []
    if len(arms) <= _CHAIN:
        for k, body in enumerate(arms):
            lines.append((depth, f"{'elif' if k else 'if'} {selector} == {base + k}:", 0))
            lines.extend((depth + 1 + d, text, rewind) for d, text, rewind in body)
        return lines
    mid = _CHAIN if base == 0 else len(arms) // 2
    lines.append((depth, f"if {selector} < {base + mid}:", 0))
    lines += _dispatch(selector, arms[:mid], depth + 1, base)
    lines.append((depth, "else:", 0))
    lines += _dispatch(selector, arms[mid:], depth + 1, base + mid)
    return lines


def _nesting(count: int, base: int = 0) -> int:
    """How many levels deeper than :func:`_dispatch`'s ``depth`` its
    deepest arm body of ``count`` arms sits."""
    if count <= _CHAIN:
        return 1
    mid = _CHAIN if base == 0 else count // 2
    return 1 + max(_nesting(mid, base), _nesting(count - mid, base + mid))


class _Code:
    """One compiled function."""

    __slots__ = ("run", "params", "entry_phis", "emitter", "rewinds")

    def __init__(self, run, emitter: "_Emitter", rewinds: Dict[int, int]) -> None:
        self.run = run
        self.params = [a.type for a in emitter.fn.arguments]
        self.entry_phis = bool(emitter.fn.entry.phis())
        # Kept for the budget path, which emits a run's prefix on demand.
        self.emitter = emitter
        self.rewinds = rewinds  # line -> counted steps after its instruction


class _Emitter:
    """Writes one function as Python source for one :class:`Interpreter`
    (module docstring).

    Each ``_<opcode>`` method reads its operands through :meth:`use` and
    :meth:`address` in the order the instruction evaluates them, so the
    undefined-value checks they collect fire in that order, and returns the
    instruction's lines.  A method that raises :class:`InterpreterError`
    leaves a line raising it, which fails when, and only when, the
    instruction runs.
    """

    def __init__(self, fn: Function, globals: Dict[str, Pointer]) -> None:
        self.fn = fn
        self.globals = globals
        self.namespace = dict(_RUNTIME, _fn=fn)
        self.names: Dict[int, str] = {}  # id(value) -> local, literal or namespace name
        self.constants: Set[int] = set()  # ids of values with a fixed value
        self.splits: Dict[int, str] = {}  # id(constant root) -> namespace prefix
        self.unset: Set[str] = set()  # locals read where they may be unset
        self.rounds32 = False
        self.site: Tuple[BasicBlock, int] = (fn.entry, 0)
        self.checks: List[str] = []
        self.out: List[_Line] = []
        # (block, instruction indices) of each counted straight-line run.
        self.segments: List[Tuple[BasicBlock, List[int]]] = []
        self._analyse()
        self._layout()
        self._classify()

    # -- analysis -------------------------------------------------------------------
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
        edge out of ``block``) finds its local set — the verifier's SSA
        dominance rule, with definitions in unreachable blocks never set."""
        if id(value) in self.constants:
            return True
        if value.type.is_void:
            return False  # a store or terminator: never sets a local
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

    @staticmethod
    def shape(bb: BasicBlock) -> Tuple[int, int, Optional[object]]:
        """``(first, end, terminator)``: the block runs instructions
        ``first`` (after its phis) up to ``end``, then its first terminator
        (None if it has none, and then ``end`` is past the last one)."""
        instructions = bb.instructions
        first = len(bb.phis())
        for index in range(first, len(instructions)):
            if instructions[index].is_terminator:
                return first, index, instructions[index]
        return first, len(instructions), None

    def _layout(self) -> None:
        """The blocks the entry reaches, and the dispatch arms among them:
        every block but the entry with other than one incoming edge, ordered
        by loop depth (deepest first), and the entry if anything branches
        back to it."""
        entry = self.fn.entry
        order: List[BasicBlock] = []
        incoming: Dict[int, int] = {}
        seen = {id(entry)}
        stack = [entry]
        while stack:
            bb = stack.pop()
            order.append(bb)
            term = self.shape(bb)[2]
            for target in term.successors if term is not None else ():
                if isinstance(target, BasicBlock):
                    incoming[id(target)] = incoming.get(id(target), 0) + 1
                    if id(target) not in seen:
                        seen.add(id(target))
                        stack.append(target)
        self.order = order
        depth: Dict[int, int] = {}
        if self.dominators is not None:
            loops = LoopInfo(self.fn, self.dominators)
            for bb in order:
                loop = loops.loop_for(bb)
                depth[id(bb)] = loop.depth if loop is not None else 0
        arms = [
            bb for bb in order
            if incoming.get(id(bb), 0) != 1 and not (bb is entry and id(bb) not in incoming)
        ]
        arms.sort(key=lambda bb: -depth.get(id(bb), 0))
        self.arms = arms
        self.arm = {id(bb): k for k, bb in enumerate(arms)}

    def _classify(self) -> None:
        """Which address values stay split.  A GEP result is *derived* (an
        integer offset into its root's buffer) when dominance proves every
        read of it defined and its own read of its base.  Every other value
        used as an address is a *root*: an object whose buffer, data and
        limits (length less each access size) are cached where it is
        defined.  ``roots`` maps each root to the access sizes through it."""
        self.derived: Dict[int, Value] = {}
        self.roots: Dict[int, Set[int]] = {}
        # Reverse postorder visits a definition before the uses it dominates.
        blocks = self.dominators.rpo if self.dominators is not None else self.order
        for bb in blocks:
            first, end, _ = self.shape(bb)
            for index in range(first, end):
                inst = bb.instructions[index]
                if isinstance(inst, GetElementPtr):
                    base = inst.pointer
                    root = self.derived.get(id(base), base)
                    self.roots.setdefault(id(root), set())
                    if self.dominators is not None and self._reads_defined(inst, base, bb, index):
                        self.derived[id(inst)] = root
                elif isinstance(inst, (Load, Store)):
                    try:
                        ty = inst.type if isinstance(inst, Load) else inst.value.type
                        size = _scalar_layout(ty).size
                    except InterpreterError:
                        continue
                    root = self.derived.get(id(inst.pointer), inst.pointer)
                    self.roots.setdefault(id(root), set()).add(size)

    def _reads_defined(self, gep: GetElementPtr, base: Value, bb: BasicBlock, index: int) -> bool:
        try:
            self.name(base)
        except InterpreterError:
            return False
        if not self.defined(base, bb, index):
            return False
        for use in gep.uses:
            user = use.user
            block = getattr(user, "parent", None)
            if not isinstance(block, BasicBlock) or id(block) not in self.reachable:
                continue  # never runs here
            if isinstance(user, Phi):
                if use.index % 2:
                    return False
                pred = user.operands[use.index + 1]
                if not isinstance(pred, BasicBlock) or id(pred) not in self.reachable:
                    continue
                if not self.defined(gep, pred, len(pred.instructions)):
                    return False
            elif id(user) not in self.position or not self.defined(gep, *self.position[id(user)]):
                return False
        return True

    # -- values ---------------------------------------------------------------------
    def name(self, value: Value) -> str:
        """The Python expression of ``value``'s local, literal or constant."""
        name = self.names.get(id(value))
        if name is None:
            initial = self._initial(value)
            if initial is _UNSET:
                name = f"v{len(self.names)}"
            else:
                self.constants.add(id(value))
                if type(initial) is int:
                    name = repr(initial) if initial >= 0 else f"({initial})"
                else:
                    name = self.constant(initial)
            self.names[id(value)] = name
        return name

    def constant(self, obj: object) -> str:
        """A new namespace name holding ``obj``."""
        name = f"k{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def _initial(self, value: Value) -> object:
        """The value of a constant, global or function; ``_UNSET`` for what
        an instruction or argument defines."""
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

    def check(self, name: str, value: Value) -> None:
        """Add a check that local ``name`` is set to the current checks."""
        self.unset.add(name)
        self.checks.append(
            f"if {name} is _UNSET: _raise({f'use of undefined value {value!r}'!r})"
        )

    def use(self, value: Value) -> str:
        """An operand the current instruction reads, as an object: a derived
        pointer is materialised as a :class:`Pointer`."""
        name = self.name(value)
        root = self.derived.get(id(value))
        if root is not None:
            return f"_P({self.split(root)}_b, {name})"
        if not self.defined(value, *self.site):
            self.check(name, value)
        return name

    def address(self, value: Value) -> Tuple[str, str, bool]:
        """``(root, offset, derived)`` of a pointer operand: ``root`` names
        the split (``<root>_b``, ``_o``, ``_d``, ``_l<size>``, and ``<root>``
        the object), ``offset`` the offset expression.  A derived offset
        needs no non-pointer check: its GEP made it."""
        root = self.derived.get(id(value))
        if root is not None:
            return self.split(root), self.name(value), True
        self.use(value)
        split = self.split(value)
        return split, f"{split}_o", False

    def split(self, root: Value) -> str:
        """The prefix of root ``root``'s split; a constant root's lives in
        the namespace."""
        if id(root) not in self.constants:
            return self.name(root)
        prefix = self.splits.get(id(root))
        if prefix is None:
            prefix = self.splits[id(root)] = f"c{len(self.splits)}"
            obj = self.namespace[prefix] = self._initial(root)
            if isinstance(obj, Pointer):
                data = obj.buffer.data
                self.namespace.update(
                    {prefix + "_b": obj.buffer, prefix + "_o": obj.offset, prefix + "_d": data}
                )
                for size in self.roots.get(id(root), ()):
                    self.namespace[f"{prefix}_l{size}"] = len(data) - size
            else:
                self.namespace.update({prefix + "_d": None, prefix + "_o": _NonPointer(obj)})
        return prefix

    def split_lines(self, value: Value) -> List[str]:
        """Caches root ``value``'s buffer, offset, data and limits, or marks
        it as no pointer (``_d`` None, ``_o`` a :class:`_NonPointer`)."""
        sizes = self.roots.get(id(value))
        if sizes is None or id(value) in self.constants:
            return []
        n = self.name(value)
        limits = "".join(f"; {n}_l{s} = len({n}_d) - {s}" for s in sorted(sizes))
        return [
            f"if isinstance({n}, _P): {n}_b = {n}.buffer; {n}_o = {n}.offset; "
            f"{n}_d = {n}_b.data{limits}",
            f"else: {n}_d = None; {n}_o = _NonPointer({n})",
        ]

    def wrapper(self, ty: IntegerType) -> str:
        """The namespace name of ``ty.wrap``."""
        name = f"_wrap{ty.width}"
        self.namespace.setdefault(name, ty.wrap)
        return name

    def wrapped(self, expr: str, ty: IntegerType) -> str:
        """``expr`` wrapped to ``ty``; the common in-range case costs two
        comparisons."""
        half = ty.max_signed + 1
        return f"_t if {-half} <= (_t := {expr}) <= {half - 1} else {self.wrapper(ty)}(_t)"

    def rounded(self, d: str, expr: str, kind: str) -> List[str]:
        """``d = expr`` rounded to the float ``kind``."""
        if kind == "double":
            return [f"{d} = {expr}"]
        if kind == "float":
            self.rounds32 = True
            return [f"_r32[0] = {expr}; {d} = _r32[0]"]
        return [f"{d} = _round_half({expr})"]

    # -- instructions ---------------------------------------------------------------
    def emit(self, inst, block: BasicBlock, index: int) -> List[str]:
        """The lines of non-terminator ``inst``, its checks first."""
        self.site = (block, index)
        self.checks = []
        method = _EMITTERS.get(type(inst))
        try:
            if method is None:
                raise InterpreterError(f"no semantics for {inst!r}")
            lines = method(self, inst) + self.split_lines(inst)
        except InterpreterError as exc:
            lines = [f"_raise({str(exc)!r})"]
        return self.checks + lines

    def _binop(self, inst: BinaryOperator) -> List[str]:
        a, b, d = self.use(inst.lhs), self.use(inst.rhs), self.name(inst)
        op = inst.opcode
        if op in _FLOAT_BINOPS:
            return self.rounded(d, _FLOAT_BINOPS[op].format(a, b), inst.type.kind)
        ty: IntegerType = inst.type  # type: ignore[assignment]
        if op in _INT_OPERATORS:
            expr = f"{a} {_INT_OPERATORS[op]} {b}"
        else:
            expr = f"{self.constant(_integer_binop(op, ty))}({a}, {b})"
        return [f"{d} = {self.wrapped(expr, ty)}"]

    def _compare(self, inst, a: str, b: str) -> str:
        """The condition ``icmp``/``fcmp`` ``inst`` tests on ``a`` and ``b``."""
        pred = inst.predicate
        if isinstance(inst, FCmp):
            return _FCMP[pred].format(a=a, b=b)
        if isinstance(inst.lhs.type, PointerType):
            if pred not in ("eq", "ne"):
                raise InterpreterError("ordered pointer comparison unsupported")
            return f"_pid({a}) {_RELATIONS[pred]} _pid({b})"
        if pred in ("eq", "ne"):
            return f"{a} {_RELATIONS[pred]} {b}"
        if pred[0] == "u":
            mask = inst.lhs.type.max_unsigned
            return f"({a} & {mask}) {_RELATIONS[pred[1:]]} ({b} & {mask})"
        return f"{a} {_RELATIONS[pred[1:]]} {b}"

    def _cmp(self, inst) -> List[str]:
        a, b, d = self.use(inst.lhs), self.use(inst.rhs), self.name(inst)
        return [f"{d} = 1 if {self._compare(inst, a, b)} else 0"]

    def _alloca(self, inst: Alloca) -> List[str]:
        count = None if inst.array_size is None else self.use(inst.array_size)
        d = self.name(inst)
        size, name = inst.allocated_type.byte_size(), inst.name or "alloca"
        nbytes = str(size) if count is None else f"{size} * int({count})"
        return [f"{d} = _P(_MB({nbytes}, {name!r}))"]

    @staticmethod
    def guarded(op: str, access: str, address: Tuple[str, str, bool], size: int) -> str:
        """``access`` if it lies inside its buffer, else the fault of ``op``."""
        root, offset, derived = address
        if derived:
            inside = f"0 <= {offset} <= {root}_l{size}"
            return f"{access} if {inside} else {root}_b.check({offset}, {size})"
        inside = f"{root}_d is not None and 0 <= {offset} <= {root}_l{size}"
        return f"{access} if {inside} else _bad_access({op!r}, {root}, {size})"

    def _load(self, inst: Load) -> List[str]:
        root, offset, derived = address = self.address(inst.pointer)
        d, ty = self.name(inst), inst.type
        layout = _scalar_layout(ty)
        read = f"_ld_{layout.format[1]}({root}_d, {offset})[0]"
        lines = [f"{d} = {self.guarded('load', read, address, layout.size)}"]
        if isinstance(ty, IntegerType) and ty.width != 8 * layout.size:
            # Integers narrower than their storage (i1) wrap what memory holds.
            lines.append(f"{d} = {self.wrapped(d, ty)}")
        return lines

    def _store(self, inst: Store) -> List[str]:
        root, offset, _ = address = self.address(inst.pointer)
        value = self.use(inst.value)
        ty = inst.value.type
        layout = _scalar_layout(ty)
        if isinstance(ty, IntegerType):
            value = f"{self.wrapper(ty)}(int({value}))"
        write = f"_st_{layout.format[1]}({root}_d, {offset}, {value})"
        return [self.guarded("store", write, address, layout.size)]

    def _gep(self, inst: GetElementPtr) -> List[str]:
        root, base, derived_base = self.address(inst.pointer)
        indices = inst.indices
        names = [self.use(i) for i in indices]
        d = self.name(inst)
        # offset = base + constant + sum(index * stride) over the non-constant indices
        constant, terms = 0, []
        ty: Type = inst.source_type
        for k, (index, name) in enumerate(zip(indices, names)):
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
                terms.append(name if stride == 1 else f"{name} * {stride}")
        # A root base's offset always takes an addition: a non-pointer's raises.
        added = [str(constant)] if constant or not (terms or derived_base) else []
        offset = " + ".join([base] + added + terms)
        if id(inst) in self.derived:
            return [f"{d} = {offset}"]
        return [f"{d} = {offset}; {d} = _P({root}_b, {d})"]

    def _cast(self, inst: Cast) -> List[str]:
        a, d = self.use(inst.value), self.name(inst)
        op, to = inst.opcode, inst.type
        if op == "bitcast":  # pointers only in our subset
            return [f"{d} = {a}"]
        if op == "inttoptr":
            raise InterpreterError("inttoptr has no meaning in the buffer memory model")
        if isinstance(to, FloatType):
            if op in ("fptrunc", "fpext"):
                expr = f"float({a})"
            elif op == "sitofp":
                expr = f"float(int({a}))"
            elif op == "uitofp":
                expr = f"float(int({a}) & {inst.value.type.max_unsigned})"
            else:
                raise InterpreterError(f"unhandled cast {op}")
            return self.rounded(d, expr, to.kind)
        if op in ("sext", "trunc"):
            expr = f"int({a})"
        elif op == "zext":
            expr = f"int({a}) & {inst.value.type.max_unsigned}"
        elif op in ("fptosi", "fptoui"):
            expr = f"_fp_to_int({a}, {op!r})"
        elif op == "ptrtoint":
            expr = f"_ptr_to_int({a})"
        else:
            raise InterpreterError(f"unhandled cast {op}")
        return [f"{d} = {self.wrapped(expr, to)}"]

    def _select(self, inst: Select) -> List[str]:
        c, d = self.use(inst.condition), self.name(inst)
        # Only the chosen arm is read, so only it may fault.
        arms = []
        for value in (inst.true_value, inst.false_value):
            name = self.name(value)
            root = self.derived.get(id(value))
            if root is not None:
                name = f"_P({self.split(root)}_b, {name})"
            elif not self.defined(value, *self.site):
                self.unset.add(name)
                name = f"_checked({name}, {f'use of undefined value {value!r}'!r})"
            arms.append(name)
        return [f"{d} = {arms[0]} if {c} else {arms[1]}"]

    def _call(self, inst: Call) -> List[str]:
        args = ", ".join(self.use(a) for a in inst.args)
        d = self.name(inst)
        callee = inst.callee
        if isinstance(callee, Function) and not callee.is_declaration:
            # The callee reads and returns the running count.
            return [
                "interp.steps = steps",
                f"{d} = interp._invoke({self.constant(callee)}, [{args}])",
                "steps = interp.steps",
            ]
        return [f"{d} = _extern({callee.name!r}, [{args}], {self.constant(inst.type)})"]

    def _freeze(self, inst: Freeze) -> List[str]:
        return [f"{self.name(inst)} = {self.use(inst.value)}"]

    def _extract_value(self, inst: ExtractValue) -> List[str]:
        a, d = self.use(inst.aggregate), self.name(inst)
        return [f"{d} = {a}" + "".join(f"[{i}]" for i in inst.indices)]

    def _insert_value(self, inst: InsertValue) -> List[str]:
        a, v, d = self.use(inst.aggregate), self.use(inst.value), self.name(inst)
        *path, last = inst.indices
        # Aggregate constants live in the namespace, shared by every call:
        # this copy before the write is what keeps them intact.  Nothing
        # else writes into an aggregate.
        target = d + "".join(f"[{i}]" for i in path)
        return [f"{d} = _deep_copy({a}); {target}[{last}] = {v}"]

    # -- blocks ---------------------------------------------------------------------
    def line(self, depth: int, text: str, rewind: int = 0) -> None:
        self.out.append((depth, text, rewind))

    def block(self, bb: BasicBlock, depth: int, arm: Optional[int], inlined: int) -> None:
        """Emit ``bb`` at ``depth`` inside dispatch arm ``arm`` (None before
        the dispatch loop), ``inlined`` blocks deep in inline emission."""
        first, end, term = self.shape(bb)
        for phi in bb.instructions[:first]:
            for text in self.split_lines(phi):
                self.line(depth, text)
        fold = self.foldable(bb, first, end, term)
        runs: List[List[int]] = [[]]
        for index in range(first, end + (term is not None)):
            runs[-1].append(index)
            if _calls_defined(bb.instructions[index]):
                runs.append([])
        for run in runs:
            if not run:
                continue
            n = len(run)
            self.line(
                depth,
                f"if (steps := steps + {n}) > max_steps: "
                f"interp._exhausted(_fn, {len(self.segments)}, locals())",
            )
            self.segments.append((bb, run))
            for j, index in enumerate(run):
                if index == fold:
                    continue
                if index == end:
                    self.terminator(bb, index, depth, arm, inlined, fold)
                else:
                    for text in self.emit(bb.instructions[index], bb, index):
                        self.line(depth, text, n - j - 1)
        if term is None:
            self.line(depth, f"_raise({f'block %{bb.name} fell through'!r})")

    def foldable(self, bb: BasicBlock, first: int, end: int, term) -> Optional[int]:
        """Index of the compare whose only user is ``term``, a conditional
        branch right after it: the branch tests the condition itself."""
        if not isinstance(term, CondBranch) or end <= first or self.dominators is None:
            return None
        cmp = bb.instructions[end - 1]
        if not isinstance(cmp, (ICmp, FCmp)) or term.condition is not cmp or cmp.num_uses != 1:
            return None
        if isinstance(cmp.lhs.type, PointerType):
            return None
        try:
            self.name(cmp.lhs), self.name(cmp.rhs)
        except InterpreterError:
            return None
        if self.defined(cmp.lhs, bb, end - 1) and self.defined(cmp.rhs, bb, end - 1):
            return end - 1
        return None

    def terminator(self, bb: BasicBlock, index: int, depth: int, arm, inlined: int, fold) -> None:
        term = bb.instructions[index]
        self.site = (bb, index)
        self.checks = []
        try:
            if isinstance(term, Return):
                value = None if term.value is None else self.use(term.value)
            elif isinstance(term, CondBranch):
                if fold is not None:
                    cmp = bb.instructions[fold]
                    self.site = (bb, fold)
                    test = self._compare(cmp, self.name(cmp.lhs), self.name(cmp.rhs))
                else:
                    test = self.use(term.condition)
            elif isinstance(term, Switch):
                test = self.use(term.value)
        except InterpreterError as exc:
            for text in self.checks + [f"_raise({str(exc)!r})"]:
                self.line(depth, text)
            return
        for text in self.checks:
            self.line(depth, text)
        if isinstance(term, Return):
            self.line(depth, "interp.steps = steps")
            self.line(depth, "return" if value is None else f"return {value}")
        elif isinstance(term, Branch):
            self.edge(bb, term.target, depth, arm, inlined)
        elif isinstance(term, CondBranch):
            self.line(depth, f"if {test}:")
            if not self.edge(bb, term.true_target, depth + 1, arm, inlined):
                self.line(depth + 1, "pass")
            mark = len(self.out)
            self.line(depth, "else:")
            if not self.edge(bb, term.false_target, depth + 1, arm, inlined):
                del self.out[mark:]
        elif isinstance(term, Switch):
            self.switch(bb, term, test, depth, arm, inlined)
        else:  # Unreachable
            message = f"reached 'unreachable' in @{self.fn.name}"
            self.line(depth, f"_raise({message!r})")

    def switch(self, bb: BasicBlock, term: Switch, value: str, depth: int, arm, inlined: int) -> None:
        # The first matching case wins; everything else takes the default.
        cases: Dict[object, int] = {}
        targets = [term.default]
        for const, target in term.cases:
            if const.value not in cases:
                cases[const.value] = len(targets)
                targets.append(target)
        self.line(depth, f"_s = {self.constant(cases)}.get({value}, 0)")
        # Arms are emitted as deep as the deepest will sit, then re-based.
        inner = depth + _nesting(len(targets))
        arms = []
        outer = self.out
        for target in targets:
            self.out = []
            if not self.edge(bb, target, inner, arm, inlined):
                self.line(inner, "pass")
            arms.append([(d - inner, text, rewind) for d, text, rewind in self.out])
        self.out = outer
        self.out += _dispatch("_s", arms, depth)

    def edge(self, pred: BasicBlock, target, depth: int, arm, inlined: int) -> bool:
        """Emit the branch from ``pred`` to ``target``: its phi moves, then
        the target inline or a jump to its arm.  False if that needs no
        code (a jump back to the arm being run)."""
        mark = len(self.out)
        if not isinstance(target, BasicBlock):
            self.line(depth, f"_raise({f'branch to non-block {target!r}'!r})")
            return True
        phis = target.phis()
        if phis:
            lines, ok = self.moves(pred, phis)
            for text in lines:
                self.line(depth, text)
            if not ok:
                return True
        index = self.arm.get(id(target))
        if index is None and (inlined >= _MAX_INLINE or depth >= _MAX_DEPTH):
            index = self.arm[id(target)] = len(self.arms)
            self.arms.append(target)
        if index is None:
            self.block(target, depth, arm, inlined + 1)
        elif index != arm:
            self.line(depth, f"B = {index}")
        return len(self.out) > mark

    def moves(self, pred: BasicBlock, phis: List[Phi]) -> Tuple[List[str], bool]:
        """Lines copying the incoming values into ``phis``, all read before
        any is written; False if they always raise."""
        end = len(pred.instructions)
        dsts, srcs = [], []
        self.checks = []
        try:
            for phi in phis:
                incoming = phi.incoming_value_for(pred)
                if incoming is None:
                    missing = f"phi {phi.ref()} missing incoming for %{pred.name}"
                    return self.checks + [f"_raise({missing!r})"], False
                src = self.name(incoming)
                root = self.derived.get(id(incoming))
                if root is not None:
                    src = f"_P({self.split(root)}_b, {src})"
                elif not self.defined(incoming, pred, end):
                    self.check(src, incoming)
                srcs.append(src)
                dsts.append(self.name(phi))
        except InterpreterError as exc:
            return [f"_raise({str(exc)!r})"], False
        return self.checks + [f"{', '.join(dsts)} = {', '.join(srcs)}"], True

    # -- whole function -------------------------------------------------------------
    def compile(self) -> _Code:
        fn = self.fn
        params = [self.name(a) for a in fn.arguments]
        self.out = body = []
        entry = self.arm.get(id(fn.entry))
        if entry is None:
            self.block(fn.entry, 1, None, 0)
        else:
            self.line(1, f"B = {entry}")
        arms = []
        while len(arms) < len(self.arms):  # inline emission may add arms
            self.out = []
            self.block(self.arms[len(arms)], 0, len(arms), 0)
            arms.append(self.out)
        self.out = []
        pyname = "ir_" + re.sub(r"\W", "_", fn.name)
        lines: List[_Line] = [
            (0, f"def {pyname}({', '.join(['interp'] + params)}):", 0),
            (1, "steps = interp.steps", 0),
            (1, "max_steps = interp.max_steps", 0),
        ]
        unset = sorted(self.unset - set(params))
        if unset:
            lines.append((1, " = ".join(unset) + " = _UNSET", 0))
        if self.rounds32:
            lines.append((1, "_r32 = _f32_cell()", 0))
        for arg in fn.arguments:
            lines += [(1, text, 0) for text in self.split_lines(arg)]
        lines += body
        if arms:
            lines.append((1, "while True:", 0))
            lines += _dispatch("B", arms, 2)
        source = "\n".join("    " * depth + text for depth, text, _ in lines)
        rewinds = {number: r for number, (_, _, r) in enumerate(lines, 1) if r}
        exec(compile(source, _SOURCE, "exec"), self.namespace)
        # Popped, so the function and its namespace form no cycle.
        return _Code(self.namespace.pop(pyname), self, rewinds)

    def prefix(self, segment: int, fits: int, message: str) -> str:
        """Source running the first ``fits`` instructions of ``segment``,
        counting each, then raising ``message``; it runs on a copy of the
        frame's locals."""
        bb, run = self.segments[segment]
        lines: List[str] = []
        for index in run[:fits]:
            lines.append("steps += 1")
            lines += self.emit(bb.instructions[index], bb, index)
        lines += ["steps += 1", f"_raise({message!r})"]
        return "\n".join(lines)


_EMITTERS = {
    BinaryOperator: _Emitter._binop,
    ICmp: _Emitter._cmp,
    FCmp: _Emitter._cmp,
    Alloca: _Emitter._alloca,
    Load: _Emitter._load,
    Store: _Emitter._store,
    GetElementPtr: _Emitter._gep,
    Cast: _Emitter._cast,
    Select: _Emitter._select,
    Call: _Emitter._call,
    Freeze: _Emitter._freeze,
    ExtractValue: _Emitter._extract_value,
    InsertValue: _Emitter._insert_value,
}


class Interpreter:
    def __init__(self, module: Module, max_steps: int = 50_000_000):
        self.module = module
        self.max_steps = max_steps
        self.steps = 0
        self.globals: Dict[str, Pointer] = {}
        # Compiled functions.  They live here rather than on the Function, so
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
        try:
            result = self._invoke(fn, converted)
        except Exception as exc:
            self._rewind(exc.__traceback__)
            raise
        # A returned aggregate may be a namespace constant: hand out a copy.
        return _deep_copy(result)

    # -- execution engine ----------------------------------------------------------
    def _invoke(self, fn: Function, args: Sequence) -> object:
        """Call ``fn``, compiling it on its first call here."""
        code = self._decoded.get(fn)
        if code is None:
            code = self._decoded[fn] = _Emitter(fn, self.globals).compile()
        values = [_coerce(value, type) for value, type in zip(args, code.params)]
        values += [_UNSET] * (len(code.params) - len(values))
        if code.entry_phis:
            raise InterpreterError(
                f"phi in entry-reached block %{code.emitter.fn.entry.name} "
                "with no predecessor"
            )
        return code.run(self, *values)

    def _exhausted(self, fn: Function, segment: int, frame: dict) -> None:
        """A straight-line run of ``fn`` does not fit the budget: run the
        instructions that fit on a copy of ``frame``, then raise the budget
        error (both from generated code, so a fault rewinds as usual)."""
        code = self._decoded[fn]
        start = frame["steps"] - len(code.emitter.segments[segment][1])
        fits = max(0, self.max_steps - start)
        message = (
            f"step budget exceeded ({self.max_steps}); "
            f"possible infinite loop in @{fn.name}"
        )
        source = code.emitter.prefix(segment, fits, message)
        exec(compile(source, _SOURCE, "exec"), {**code.run.__globals__, **frame, "steps": start})

    def _rewind(self, tb) -> None:
        """Set ``steps`` to the count at the faulting instruction: the
        innermost generated frame's ``steps`` less the steps its line's run
        counted after that instruction."""
        frame = None
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == _SOURCE:
                frame, line = tb.tb_frame, tb.tb_lineno
            tb = tb.tb_next
        if frame is None:
            return
        code = self._decoded.get(frame.f_globals.get("_fn"))
        rewind = 0
        if code is not None and frame.f_code is code.run.__code__:
            rewind = code.rewinds.get(line, 0)
        self.steps = frame.f_locals["steps"] - rewind


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
