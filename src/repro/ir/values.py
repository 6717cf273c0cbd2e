"""Value hierarchy for the mini-LLVM IR: SSA values, constants, arguments,
globals, and the use-list machinery that makes replace-all-uses-with (RAUW)
and def-use traversal cheap.
"""

from __future__ import annotations

import math
import struct as _struct
from typing import Iterable, List, Optional, Sequence, Tuple

from .types import (
    ArrayType,
    FloatType,
    IntegerType,
    PointerType,
    StructType,
    Type,
    VectorType,
)

__all__ = [
    "Value",
    "User",
    "Use",
    "Constant",
    "ConstantInt",
    "ConstantFloat",
    "ConstantPointerNull",
    "ConstantAggregate",
    "ConstantAggregateZero",
    "UndefValue",
    "PoisonValue",
    "Argument",
    "GlobalValue",
    "GlobalVariable",
    "const_int",
    "const_float",
    "const_bool",
]


class Use:
    """One operand slot in a user that references a value."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int):
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        return f"<Use of {self.user!r}[{self.index}]>"


class Value:
    """Base of everything that can be referenced as an operand."""

    __slots__ = ("type", "name", "uses", "__weakref__")

    def __init__(self, type: Type, name: str = ""):
        self.type = type
        self.name = name
        self.uses: List[Use] = []

    def _touch(self) -> None:
        """Dirty-tracking hook: instructions bump their function's version
        on mutation so version-keyed caches and the verifier's clean token
        see the change."""

    # -- use lists ---------------------------------------------------------
    @property
    def num_uses(self) -> int:
        return len(self.uses)

    @property
    def is_used(self) -> bool:
        return bool(self.uses)

    def users(self) -> List["User"]:
        """Distinct users, in first-use order."""
        seen = []
        for use in self.uses:
            if use.user not in seen:
                seen.append(use.user)
        return seen

    def replace_all_uses_with(self, new: "Value") -> int:
        """Rewrite every operand slot referencing ``self`` to ``new``.

        Returns the number of rewritten slots.
        """
        if new is self:
            return 0
        count = 0
        for use in list(self.uses):
            use.user.set_operand(use.index, new)
            count += 1
        return count

    # -- display -----------------------------------------------------------
    def ref(self) -> str:
        """How this value is referenced as an operand (e.g. ``%x``)."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.type} {self.ref()}>"


class User(Value):
    """A value that references other values through operand slots."""

    __slots__ = ("_operands",)

    def __init__(self, type: Type, operands: Sequence[Value] = (), name: str = ""):
        super().__init__(type, name)
        self._operands: List[Value] = []
        for op in operands:
            self.append_operand(op)

    # -- operand management --------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def get_operand(self, index: int) -> Value:
        return self._operands[index]

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        if old is value:
            return
        for use in old.uses:
            if use.user is self and use.index == index:
                old.uses.remove(use)
                break
        self._operands[index] = value
        value.uses.append(Use(self, index))
        self._touch()

    def append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value.uses.append(Use(self, index))
        self._touch()

    def remove_operand(self, index: int) -> None:
        """Remove one operand slot, shifting later slots down."""
        old = self._operands[index]
        for use in old.uses:
            if use.user is self and use.index == index:
                old.uses.remove(use)
                break
        del self._operands[index]
        # Re-index remaining uses pointing at this user past the removed slot.
        for i in range(index, len(self._operands)):
            op = self._operands[i]
            for use in op.uses:
                if use.user is self and use.index == i + 1:
                    use.index = i
                    break
        self._touch()

    def drop_all_operands(self) -> None:
        for i in reversed(range(len(self._operands))):
            old = self._operands[i]
            for use in old.uses:
                if use.user is self and use.index == i:
                    old.uses.remove(use)
                    break
            del self._operands[i]
        self._touch()


# -- constants --------------------------------------------------------------


class Constant(Value):
    """Base for compile-time constants (no uses of other values except in
    aggregates, which reference member constants structurally, not through
    the use-list machinery — constants are immutable)."""

    __slots__ = ()

    def ref(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class ConstantInt(Constant):
    __slots__ = ("value",)

    def __init__(self, type: IntegerType, value: int):
        super().__init__(type)
        self.value = type.wrap(int(value))

    def ref(self) -> str:
        if self.type.bit_width() == 1:
            return "true" if self.value else "false"
        return str(self.value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConstantInt)
            and other.type is self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("cint", self.type, self.value))


def _float_bits(value: float, kind: str) -> str:
    """LLVM-style hex rendering of a float constant (for exact round-trip)."""
    if kind == "double":
        (bits,) = _struct.unpack("<Q", _struct.pack("<d", value))
        return f"0x{bits:016X}"
    if kind == "float":
        # LLVM prints float constants as the double whose value equals the
        # float; we use the padded hex-of-double convention.
        as_double = _struct.unpack("<d", _struct.pack("<d", value))[0]
        (bits,) = _struct.unpack("<Q", _struct.pack("<d", as_double))
        return f"0x{bits:016X}"
    (bits,) = _struct.unpack("<H", _struct.pack("<e", value))
    return f"0xH{bits:04X}"


class ConstantFloat(Constant):
    __slots__ = ("value",)

    def __init__(self, type: FloatType, value: float):
        super().__init__(type)
        if type.kind == "float":
            # Round to single precision so semantics match storage.
            value = _struct.unpack("<f", _struct.pack("<f", value))[0]
        elif type.kind == "half":
            value = _struct.unpack("<e", _struct.pack("<e", value))[0]
        self.value = float(value)

    def ref(self) -> str:
        v = self.value
        if math.isnan(v) or math.isinf(v):
            return _float_bits(v, self.type.kind)
        text = repr(v)
        # LLVM requires a decimal point or exponent; repr provides one.
        return text

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConstantFloat)
            and other.type is self.type
            and (
                other.value == self.value
                or (math.isnan(other.value) and math.isnan(self.value))
            )
        )

    def __hash__(self) -> int:
        return hash(("cfloat", self.type, self.value))


class ConstantPointerNull(Constant):
    __slots__ = ()

    def __init__(self, type: PointerType):
        super().__init__(type)

    def ref(self) -> str:
        return "null"


class ConstantAggregateZero(Constant):
    """``zeroinitializer`` for arrays/structs/vectors."""

    __slots__ = ()

    def ref(self) -> str:
        return "zeroinitializer"


class ConstantAggregate(Constant):
    """A constant array, struct, or vector with explicit members."""

    __slots__ = ("members",)

    def __init__(self, type: Type, members: Sequence[Constant]):
        super().__init__(type)
        self.members: Tuple[Constant, ...] = tuple(members)
        expected = None
        if isinstance(type, ArrayType):
            expected = type.count
        elif isinstance(type, VectorType):
            expected = type.count
        elif isinstance(type, StructType):
            expected = len(type.elements)
        if expected is not None and expected != len(self.members):
            raise ValueError(
                f"aggregate constant arity mismatch: type {type} wants "
                f"{expected} members, got {len(self.members)}"
            )

    def ref(self) -> str:
        body = ", ".join(f"{m.type} {m.ref()}" for m in self.members)
        if isinstance(self.type, ArrayType):
            return f"[{body}]"
        if isinstance(self.type, VectorType):
            return f"<{body}>"
        return f"{{{body}}}"


class UndefValue(Constant):
    __slots__ = ()

    def ref(self) -> str:
        return "undef"


class PoisonValue(Constant):
    """Modern LLVM poison — one of the constructs the HLS frontend's old
    fork does not understand; the adaptor rewrites it to ``undef``."""

    __slots__ = ()

    def ref(self) -> str:
        return "poison"


# -- function arguments & globals -------------------------------------------


class Argument(Value):
    __slots__ = ("index", "parent", "attributes")

    def __init__(self, type: Type, name: str = "", index: int = 0):
        super().__init__(type, name)
        self.index = index
        self.parent = None  # set by Function
        # LLVM parameter attributes relevant to the HLS flows.
        self.attributes: set = set()


class GlobalValue(Constant):
    """Base for module-level symbols (globals, functions)."""

    __slots__ = ("linkage",)

    def __init__(self, type: Type, name: str):
        super().__init__(type, name)
        self.linkage = "external"

    def ref(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A module-level variable.  Its value type is ``value_type``; as an SSA
    value it is a pointer to that type (opaque or typed per module mode)."""

    __slots__ = ("value_type", "initializer", "constant", "align")

    def __init__(
        self,
        value_type: Type,
        name: str,
        initializer: Optional[Constant] = None,
        constant: bool = False,
        opaque_pointers: bool = True,
    ):
        pointer_type = PointerType() if opaque_pointers else PointerType(value_type)
        super().__init__(pointer_type, name)
        self.value_type = value_type
        self.initializer = initializer
        self.constant = constant
        self.align: Optional[int] = None
        self.linkage = "internal" if initializer is not None else "external"


# -- convenience constructors -------------------------------------------------


def const_int(value: int, type: IntegerType) -> ConstantInt:
    return ConstantInt(type, value)


def const_float(value: float, type: FloatType) -> ConstantFloat:
    return ConstantFloat(type, value)


def const_bool(value: bool) -> ConstantInt:
    return ConstantInt(IntegerType(1), 1 if value else 0)
