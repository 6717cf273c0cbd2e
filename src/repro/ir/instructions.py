"""Instruction set of the mini-LLVM IR.

Covers the subset of LLVM that the MLIR lowering path produces and the HLS
frontend consumes: integer/float arithmetic (with nsw/nuw and fast-math
flags), comparisons, memory (alloca/load/store/GEP), casts, phi/select,
calls (incl. intrinsics), aggregate insert/extract (for memref descriptors),
``freeze`` (modern-only — the adaptor removes it) and the terminators
``ret``/``br``/``cond br``/``switch``/``unreachable``.

Basic blocks are values (of label type), so branch targets and phi incoming
blocks participate in the ordinary use-list machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .metadata import MDNode
from .types import (
    FunctionType,
    IntegerType,
    PointerType,
    Type,
    VectorType,
    i1,
    void,
)
from .values import ConstantInt, User, Value

__all__ = [
    "Instruction",
    "BinaryOperator",
    "ICmp",
    "FCmp",
    "Alloca",
    "Load",
    "Store",
    "GetElementPtr",
    "Cast",
    "Phi",
    "Select",
    "Call",
    "Freeze",
    "ExtractValue",
    "InsertValue",
    "Return",
    "Branch",
    "CondBranch",
    "Switch",
    "Unreachable",
    "INT_BINOPS",
    "FLOAT_BINOPS",
    "CAST_OPS",
    "ICMP_PREDICATES",
    "FCMP_PREDICATES",
]

INT_BINOPS = {
    "add",
    "sub",
    "mul",
    "sdiv",
    "udiv",
    "srem",
    "urem",
    "shl",
    "lshr",
    "ashr",
    "and",
    "or",
    "xor",
}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "frem"}
CAST_OPS = {
    "trunc",
    "zext",
    "sext",
    "fptrunc",
    "fpext",
    "fptosi",
    "fptoui",
    "sitofp",
    "uitofp",
    "ptrtoint",
    "inttoptr",
    "bitcast",
}
ICMP_PREDICATES = {"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"}
FCMP_PREDICATES = {
    "false",
    "oeq",
    "ogt",
    "oge",
    "olt",
    "ole",
    "one",
    "ord",
    "ueq",
    "ugt",
    "uge",
    "ult",
    "ule",
    "une",
    "uno",
    "true",
}


class Instruction(User):
    """Base instruction: a user with an opcode, a parent block, and
    per-instruction metadata attachments (``!llvm.loop`` etc.)."""

    __slots__ = ("parent", "metadata")

    opcode: str = "<abstract>"
    # Classification flags are plain class attributes (overridden per
    # subclass) rather than isinstance-chain properties: ``is_terminator``
    # is one of the hottest lookups in the pass pipeline.  ``successors``
    # is likewise always present (empty for non-branching instructions),
    # so CFG walks need no ``hasattr`` probing.
    is_terminator: bool = False
    has_side_effects: bool = False
    successors: tuple = ()

    def __init__(self, type: Type, operands: Sequence[Value] = (), name: str = ""):
        # ``parent`` must exist before operands attach: appending an operand
        # runs the ``_touch`` dirty-tracking hook.
        self.parent = None  # BasicBlock, set on insertion
        self.metadata: Dict[str, MDNode] = {}
        super().__init__(type, operands, name)

    @property
    def function(self):
        return self.parent.parent if self.parent is not None else None

    def _touch(self) -> None:
        parent = self.parent
        if parent is not None:
            fn = parent.parent
            if fn is not None:
                fn.version += 1

    # -- mutation --------------------------------------------------------------
    def erase_from_parent(self) -> None:
        """Detach from the parent block and drop operand uses.

        The instruction must itself be unused.
        """
        if self.is_used:
            raise RuntimeError(
                f"cannot erase {self!r}: still has {self.num_uses} use(s)"
            )
        if self.parent is not None:
            self._touch()
            self.parent.instructions.remove(self)
            self.parent = None
        self.drop_all_operands()

    def remove_from_parent(self) -> None:
        """Detach from the parent block, keeping operands and uses intact."""
        if self.parent is not None:
            self._touch()
            self.parent.instructions.remove(self)
            self.parent = None

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.opcode} {self.ref()}>"


class BinaryOperator(Instruction):
    """Integer or floating binary arithmetic/logic."""

    __slots__ = ("opcode", "nsw", "nuw", "exact", "fast_math")

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in INT_BINOPS and opcode not in FLOAT_BINOPS:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if lhs.type is not rhs.type:
            raise TypeError(
                f"binary operand type mismatch: {lhs.type} vs {rhs.type} for {opcode}"
            )
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode
        # Poison-generating flags (modern IR); scrubbed by the adaptor when
        # the strict frontend does not accept them on this op.
        self.nsw = False
        self.nuw = False
        self.exact = False
        self.fast_math: set = set()  # subset of {fast, nnan, ninf, nsz, contract, reassoc, arcp}

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)

    @property
    def is_float_op(self) -> bool:
        return self.opcode in FLOAT_BINOPS

    @property
    def is_commutative(self) -> bool:
        return self.opcode in {"add", "mul", "and", "or", "xor", "fadd", "fmul"}


class ICmp(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"bad icmp predicate {predicate!r}")
        if lhs.type is not rhs.type:
            raise TypeError(f"icmp operand type mismatch: {lhs.type} vs {rhs.type}")
        result = (
            VectorType(i1, lhs.type.count) if isinstance(lhs.type, VectorType) else i1
        )
        super().__init__(result, [lhs, rhs], name)
        self.predicate = predicate

    opcode = "icmp"

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)


class FCmp(Instruction):
    __slots__ = ("predicate", "fast_math")

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"bad fcmp predicate {predicate!r}")
        if lhs.type is not rhs.type:
            raise TypeError(f"fcmp operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(i1, [lhs, rhs], name)
        self.predicate = predicate
        self.fast_math: set = set()

    opcode = "fcmp"

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)


class Alloca(Instruction):
    """Stack (for HLS: local BRAM) allocation."""

    __slots__ = ("allocated_type", "align")

    opcode = "alloca"

    def __init__(
        self,
        allocated_type: Type,
        array_size: Optional[Value] = None,
        name: str = "",
        align: Optional[int] = None,
        opaque_pointers: bool = True,
    ):
        result = PointerType() if opaque_pointers else PointerType(allocated_type)
        ops = [array_size] if array_size is not None else []
        super().__init__(result, ops, name)
        self.allocated_type = allocated_type
        self.align = align

    @property
    def array_size(self) -> Optional[Value]:
        return self.get_operand(0) if self.num_operands else None


class Load(Instruction):
    __slots__ = ("align", "volatile")

    opcode = "load"

    def __init__(self, type: Type, pointer: Value, name: str = "", align: Optional[int] = None):
        if not pointer.type.is_pointer:
            raise TypeError(f"load pointer operand has non-pointer type {pointer.type}")
        super().__init__(type, [pointer], name)
        self.align = align
        self.volatile = False

    @property
    def pointer(self) -> Value:
        return self.get_operand(0)


class Store(Instruction):
    __slots__ = ("align", "volatile")

    opcode = "store"
    has_side_effects = True

    def __init__(self, value: Value, pointer: Value, align: Optional[int] = None):
        if not pointer.type.is_pointer:
            raise TypeError(f"store pointer operand has non-pointer type {pointer.type}")
        super().__init__(void, [value, pointer])
        self.align = align
        self.volatile = False

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    @property
    def pointer(self) -> Value:
        return self.get_operand(1)


class GetElementPtr(Instruction):
    """Address arithmetic.  ``source_type`` is the element type the indices
    step through (mandatory in modern IR where the pointer is opaque)."""

    __slots__ = ("source_type", "inbounds")

    opcode = "getelementptr"

    def __init__(
        self,
        source_type: Type,
        pointer: Value,
        indices: Sequence[Value],
        name: str = "",
        inbounds: bool = True,
        opaque_pointers: bool = True,
    ):
        if not pointer.type.is_pointer:
            raise TypeError(f"gep pointer operand has non-pointer type {pointer.type}")
        result_pointee = _gep_result_type(source_type, list(indices))
        result = PointerType() if opaque_pointers else PointerType(result_pointee)
        super().__init__(result, [pointer, *indices], name)
        self.source_type = source_type
        self.inbounds = inbounds

    @property
    def pointer(self) -> Value:
        return self.get_operand(0)

    @property
    def indices(self) -> Tuple[Value, ...]:
        return self.operands[1:]

    def result_pointee_type(self) -> Type:
        return _gep_result_type(self.source_type, list(self.indices))


def _gep_result_type(source_type: Type, indices: List[Value]) -> Type:
    """The pointee type after stepping through ``indices``.

    The first index steps *over* the source type (pointer arithmetic); the
    remaining indices step *into* aggregates.
    """
    from .types import ArrayType, StructType

    t = source_type
    for idx in indices[1:]:
        if isinstance(t, ArrayType):
            t = t.element
        elif isinstance(t, StructType):
            if not isinstance(idx, ConstantInt):
                raise TypeError("struct GEP index must be a constant int")
            t = t.elements[idx.value]
        elif isinstance(t, VectorType):
            t = t.element
        else:
            raise TypeError(f"cannot index into non-aggregate type {t}")
    return t


class Cast(Instruction):
    __slots__ = ("opcode",)

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = ""):
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        super().__init__(to_type, [value], name)
        self.opcode = opcode

    @property
    def value(self) -> Value:
        return self.get_operand(0)


class Phi(Instruction):
    """SSA phi.  Operands alternate (value, block): slots 2k / 2k+1."""

    __slots__ = ()

    opcode = "phi"

    def __init__(self, type: Type, name: str = ""):
        super().__init__(type, [], name)

    def add_incoming(self, value: Value, block: Value) -> None:
        if value.type is not self.type:
            raise TypeError(
                f"phi incoming type {value.type} does not match phi type {self.type}"
            )
        self.append_operand(value)
        self.append_operand(block)

    @property
    def incoming(self) -> List[Tuple[Value, Value]]:
        ops = self.operands
        return [(ops[i], ops[i + 1]) for i in range(0, len(ops), 2)]

    def incoming_value_for(self, block: Value) -> Optional[Value]:
        for value, pred in self.incoming:
            if pred is block:
                return value
        return None

    def remove_incoming(self, block: Value) -> None:
        for i, (_value, pred) in enumerate(self.incoming):
            if pred is block:
                self.remove_operand(2 * i + 1)
                self.remove_operand(2 * i)
                return
        raise ValueError(f"phi has no incoming edge from {block!r}")


class Select(Instruction):
    __slots__ = ()

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        if if_true.type is not if_false.type:
            raise TypeError(
                f"select arm type mismatch: {if_true.type} vs {if_false.type}"
            )
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    @property
    def condition(self) -> Value:
        return self.get_operand(0)

    @property
    def true_value(self) -> Value:
        return self.get_operand(1)

    @property
    def false_value(self) -> Value:
        return self.get_operand(2)


class Call(Instruction):
    """Direct call.  Intrinsics are calls whose callee name starts with
    ``llvm.`` — the adaptor legalises these for the HLS frontend."""

    __slots__ = ("fast_math", "tail")

    opcode = "call"

    @property
    def has_side_effects(self) -> bool:
        return not self.is_pure

    def __init__(self, callee, args: Sequence[Value], name: str = ""):
        ftype = callee.function_type if hasattr(callee, "function_type") else None
        if ftype is None:
            raise TypeError("call callee must be a Function-like with function_type")
        if not ftype.vararg and len(ftype.params) != len(args):
            raise TypeError(
                f"call to {callee.name} arity mismatch: expected "
                f"{len(ftype.params)}, got {len(args)}"
            )
        super().__init__(ftype.return_type, [callee, *args], name)
        self.fast_math: set = set()
        self.tail = False

    @property
    def callee(self):
        return self.get_operand(0)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands[1:]

    @property
    def is_intrinsic(self) -> bool:
        return self.callee.name.startswith("llvm.")

    @property
    def intrinsic_name(self) -> Optional[str]:
        return self.callee.name if self.is_intrinsic else None

    @property
    def is_pure(self) -> bool:
        """Conservative purity: known side-effect-free intrinsics/math only."""
        name = self.callee.name
        pure_prefixes = ("llvm.fabs", "llvm.sqrt", "llvm.fmuladd", "llvm.smax",
                         "llvm.smin", "llvm.umax", "llvm.umin", "llvm.abs",
                         "llvm.exp", "llvm.log", "llvm.sin", "llvm.cos",
                         "llvm.pow", "llvm.floor", "llvm.ceil", "llvm.maxnum",
                         "llvm.minnum", "llvm.copysign")
        if name.startswith(pure_prefixes):
            return True
        pure_libm = {"sqrtf", "sqrt", "fabsf", "fabs", "expf", "exp", "logf",
                     "log", "sinf", "sin", "cosf", "cos", "powf", "pow",
                     "floorf", "floor", "ceilf", "ceil"}
        return name in pure_libm


class Freeze(Instruction):
    """Modern-only instruction (LLVM ≥ 10): stops poison propagation.  The
    HLS frontend's old fork rejects it; the adaptor's ``freeze_elim`` pass
    removes it."""

    __slots__ = ()

    opcode = "freeze"

    def __init__(self, value: Value, name: str = ""):
        super().__init__(value.type, [value], name)

    @property
    def value(self) -> Value:
        return self.get_operand(0)


class ExtractValue(Instruction):
    """Extract a member from an aggregate SSA value (memref descriptors)."""

    __slots__ = ("indices",)

    opcode = "extractvalue"

    def __init__(self, aggregate: Value, indices: Sequence[int], name: str = ""):
        from .types import ArrayType, StructType

        t = aggregate.type
        for idx in indices:
            if isinstance(t, StructType):
                t = t.elements[idx]
            elif isinstance(t, ArrayType):
                t = t.element
            else:
                raise TypeError(f"extractvalue into non-aggregate {t}")
        super().__init__(t, [aggregate], name)
        self.indices = tuple(indices)

    @property
    def aggregate(self) -> Value:
        return self.get_operand(0)


class InsertValue(Instruction):
    """Insert a member into an aggregate SSA value."""

    __slots__ = ("indices",)

    opcode = "insertvalue"

    def __init__(self, aggregate: Value, value: Value, indices: Sequence[int], name: str = ""):
        super().__init__(aggregate.type, [aggregate, value], name)
        self.indices = tuple(indices)

    @property
    def aggregate(self) -> Value:
        return self.get_operand(0)

    @property
    def value(self) -> Value:
        return self.get_operand(1)


# -- terminators ----------------------------------------------------------------


class Return(Instruction):
    __slots__ = ()

    opcode = "ret"
    is_terminator = True
    has_side_effects = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(void, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.get_operand(0) if self.num_operands else None


class Branch(Instruction):
    __slots__ = ()

    opcode = "br"
    is_terminator = True
    has_side_effects = True

    def __init__(self, target: Value):
        super().__init__(void, [target])

    @property
    def target(self):
        return self.get_operand(0)

    @property
    def successors(self) -> Tuple[Value, ...]:
        return (self.target,)


class CondBranch(Instruction):
    __slots__ = ()

    opcode = "br"
    is_terminator = True
    has_side_effects = True

    def __init__(self, condition: Value, if_true: Value, if_false: Value):
        if condition.type is not i1:
            raise TypeError(f"branch condition must be i1, got {condition.type}")
        super().__init__(void, [condition, if_true, if_false])

    @property
    def condition(self) -> Value:
        return self.get_operand(0)

    @property
    def true_target(self):
        return self.get_operand(1)

    @property
    def false_target(self):
        return self.get_operand(2)

    @property
    def successors(self) -> Tuple[Value, ...]:
        return (self.true_target, self.false_target)


class Switch(Instruction):
    """Operands: [value, default, case_const0, case_target0, ...]."""

    __slots__ = ()

    opcode = "switch"
    is_terminator = True
    has_side_effects = True

    def __init__(self, value: Value, default: Value, cases: Sequence[Tuple[ConstantInt, Value]] = ()):
        ops: List[Value] = [value, default]
        for const, target in cases:
            ops.extend([const, target])
        super().__init__(void, ops)

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    @property
    def default(self):
        return self.get_operand(1)

    @property
    def cases(self) -> List[Tuple[ConstantInt, Value]]:
        ops = self.operands
        return [(ops[i], ops[i + 1]) for i in range(2, len(ops), 2)]

    @property
    def successors(self) -> Tuple[Value, ...]:
        return (self.default, *(t for _c, t in self.cases))


class Unreachable(Instruction):
    __slots__ = ()

    opcode = "unreachable"
    is_terminator = True
    has_side_effects = True

    def __init__(self):
        super().__init__(void, [])
