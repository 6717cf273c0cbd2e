"""Type system for the mini-LLVM IR substrate.

Models the subset of LLVM's type system needed by the MLIR lowering path and
the HLS frontend: void, iN integers, half/float/double, pointers (both the
modern *opaque* form ``ptr`` and the legacy *typed* form ``T*`` that the
Vitis-style frontend requires), arrays, literal/named structs, fixed vectors,
functions, labels and metadata.

Types are immutable and interned: constructing the same type twice returns
the same object, so identity comparison (``is``) works, as does ``==``.

Interning is per-process, so every class defines ``__reduce__``: unpickling
re-runs the constructor, which re-interns in the receiving process.  This is
what lets whole :class:`repro.ir.Module` objects travel through the
compilation service's worker processes and on-disk cache.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .interning import current_intern_context

__all__ = [
    "Type",
    "VoidType",
    "IntegerType",
    "FloatType",
    "PointerType",
    "ArrayType",
    "StructType",
    "VectorType",
    "FunctionType",
    "LabelType",
    "MetadataType",
    "void",
    "i1",
    "i8",
    "i16",
    "i32",
    "i64",
    "half",
    "f32",
    "f64",
    "ptr",
    "pointer_to",
    "array_of",
    "struct_of",
    "vector_of",
    "function_type",
]


class Type:
    """Base class for all IR types."""

    __slots__ = ("__weakref__",)

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self}>"

    # -- classification helpers -------------------------------------------
    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntegerType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_opaque_pointer(self) -> bool:
        return isinstance(self, PointerType) and self.pointee is None

    @property
    def is_typed_pointer(self) -> bool:
        return isinstance(self, PointerType) and self.pointee is not None

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    @property
    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    @property
    def is_aggregate(self) -> bool:
        return self.is_array or self.is_struct

    @property
    def is_first_class(self) -> bool:
        """True for types a value (SSA register) may have."""
        return not (self.is_void or self.is_function)

    @property
    def is_scalar(self) -> bool:
        return self.is_integer or self.is_float or self.is_pointer

    def bit_width(self) -> int:
        """Width in bits for sized scalar types; raises otherwise."""
        raise TypeError(f"type {self} has no fixed bit width")

    def byte_size(self) -> int:
        """Storage size in bytes (natural/packed layout, no padding)."""
        raise TypeError(f"type {self} has no storage size")

    def __reduce__(self):
        # Interned singletons without constructor arguments (void, label,
        # metadata).  Argument-carrying subclasses override this.
        return (self.__class__, ())


def _intern(key: tuple, factory) -> Type:
    table = current_intern_context().types
    existing = table.get(key)
    if existing is None:
        existing = factory()
        table[key] = existing
    return existing


class VoidType(Type):
    __slots__ = ()

    def __new__(cls) -> "VoidType":
        return _intern(("void",), lambda: super(VoidType, cls).__new__(cls))

    def __str__(self) -> str:
        return "void"


class IntegerType(Type):
    """Arbitrary-width integer ``iN`` (we use 1, 8, 16, 32, 64 in practice)."""

    __slots__ = ("width",)
    width: int

    def __new__(cls, width: int) -> "IntegerType":
        if width <= 0:
            raise ValueError(f"integer width must be positive, got {width}")

        def make() -> "IntegerType":
            obj = super(IntegerType, cls).__new__(cls)
            obj.width = width
            return obj

        return _intern(("int", width), make)

    def __reduce__(self):
        return (IntegerType, (self.width,))

    def __str__(self) -> str:
        return f"i{self.width}"

    def bit_width(self) -> int:
        return self.width

    def byte_size(self) -> int:
        return max(1, (self.width + 7) // 8)

    @property
    def min_signed(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_signed(self) -> int:
        return (1 << (self.width - 1)) - 1

    @property
    def max_unsigned(self) -> int:
        return (1 << self.width) - 1

    def wrap(self, value: int) -> int:
        """Wrap ``value`` to this width, two's-complement signed."""
        masked = value & self.max_unsigned
        if masked > self.max_signed:
            masked -= 1 << self.width
        return masked


class FloatType(Type):
    """IEEE floating point: ``half``, ``float`` or ``double``."""

    __slots__ = ("kind",)
    KINDS = {"half": 16, "float": 32, "double": 64}
    kind: str

    def __new__(cls, kind: str) -> "FloatType":
        if kind not in cls.KINDS:
            raise ValueError(f"unknown float kind {kind!r}")

        def make() -> "FloatType":
            obj = super(FloatType, cls).__new__(cls)
            obj.kind = kind
            return obj

        return _intern(("float", kind), make)

    def __reduce__(self):
        return (FloatType, (self.kind,))

    def __str__(self) -> str:
        return self.kind

    def bit_width(self) -> int:
        return self.KINDS[self.kind]

    def byte_size(self) -> int:
        return self.KINDS[self.kind] // 8


class PointerType(Type):
    """A pointer.  ``pointee is None`` models the modern opaque ``ptr``;
    a non-None pointee models the legacy typed ``T*`` that the HLS
    frontend's old LLVM fork requires (the adaptor's ``pointer_retyping``
    pass converts the former into the latter)."""

    __slots__ = ("pointee", "addrspace")
    pointee: Optional[Type]
    addrspace: int

    def __new__(cls, pointee: Optional[Type] = None, addrspace: int = 0) -> "PointerType":
        def make() -> "PointerType":
            obj = super(PointerType, cls).__new__(cls)
            obj.pointee = pointee
            obj.addrspace = addrspace
            return obj

        return _intern(("ptr", pointee, addrspace), make)

    def __reduce__(self):
        return (PointerType, (self.pointee, self.addrspace))

    def __str__(self) -> str:
        suffix = f" addrspace({self.addrspace})" if self.addrspace else ""
        if self.pointee is None:
            return f"ptr{suffix}"
        return f"{self.pointee}*{suffix}"

    def bit_width(self) -> int:
        return 64

    def byte_size(self) -> int:
        return 8


class ArrayType(Type):
    __slots__ = ("element", "count")
    element: Type
    count: int

    def __new__(cls, element: Type, count: int) -> "ArrayType":
        if count < 0:
            raise ValueError("array count must be non-negative")

        def make() -> "ArrayType":
            obj = super(ArrayType, cls).__new__(cls)
            obj.element = element
            obj.count = count
            return obj

        return _intern(("array", element, count), make)

    def __reduce__(self):
        return (ArrayType, (self.element, self.count))

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def byte_size(self) -> int:
        return self.count * self.element.byte_size()

    def flattened_element(self) -> Type:
        """Innermost non-array element type."""
        t: Type = self
        while isinstance(t, ArrayType):
            t = t.element
        return t

    def dims(self) -> Tuple[int, ...]:
        """Dimensions of a (possibly nested) array type, outermost first."""
        out = []
        t: Type = self
        while isinstance(t, ArrayType):
            out.append(t.count)
            t = t.element
        return tuple(out)


class StructType(Type):
    """Literal (anonymous) or named struct."""

    __slots__ = ("elements", "name", "packed")
    elements: Tuple[Type, ...]
    name: Optional[str]
    packed: bool

    def __new__(
        cls,
        elements: Sequence[Type],
        name: Optional[str] = None,
        packed: bool = False,
    ) -> "StructType":
        elems = tuple(elements)

        def make() -> "StructType":
            obj = super(StructType, cls).__new__(cls)
            obj.elements = elems
            obj.name = name
            obj.packed = packed
            return obj

        return _intern(("struct", elems, name, packed), make)

    def __reduce__(self):
        return (StructType, (self.elements, self.name, self.packed))

    def __str__(self) -> str:
        if self.name is not None:
            return f"%{self.name}"
        body = ", ".join(str(e) for e in self.elements)
        return f"<{{{body}}}>" if self.packed else f"{{{body}}}"

    def byte_size(self) -> int:
        return sum(e.byte_size() for e in self.elements)


class VectorType(Type):
    __slots__ = ("element", "count")
    element: Type
    count: int

    def __new__(cls, element: Type, count: int) -> "VectorType":
        if count <= 0:
            raise ValueError("vector count must be positive")

        def make() -> "VectorType":
            obj = super(VectorType, cls).__new__(cls)
            obj.element = element
            obj.count = count
            return obj

        return _intern(("vector", element, count), make)

    def __reduce__(self):
        return (VectorType, (self.element, self.count))

    def __str__(self) -> str:
        return f"<{self.count} x {self.element}>"

    def bit_width(self) -> int:
        return self.count * self.element.bit_width()

    def byte_size(self) -> int:
        return self.count * self.element.byte_size()


class FunctionType(Type):
    __slots__ = ("return_type", "params", "vararg")
    return_type: Type
    params: Tuple[Type, ...]
    vararg: bool

    def __new__(
        cls, return_type: Type, params: Sequence[Type], vararg: bool = False
    ) -> "FunctionType":
        ps = tuple(params)

        def make() -> "FunctionType":
            obj = super(FunctionType, cls).__new__(cls)
            obj.return_type = return_type
            obj.params = ps
            obj.vararg = vararg
            return obj

        return _intern(("func", return_type, ps, vararg), make)

    def __reduce__(self):
        return (FunctionType, (self.return_type, self.params, self.vararg))

    def __str__(self) -> str:
        parts = [str(p) for p in self.params]
        if self.vararg:
            parts.append("...")
        return f"{self.return_type} ({', '.join(parts)})"


class LabelType(Type):
    __slots__ = ()

    def __new__(cls) -> "LabelType":
        return _intern(("label",), lambda: super(LabelType, cls).__new__(cls))

    def __str__(self) -> str:
        return "label"


class MetadataType(Type):
    __slots__ = ()

    def __new__(cls) -> "MetadataType":
        return _intern(("metadata",), lambda: super(MetadataType, cls).__new__(cls))

    def __str__(self) -> str:
        return "metadata"


# -- canonical singletons & helpers ---------------------------------------

void = VoidType()
i1 = IntegerType(1)
i8 = IntegerType(8)
i16 = IntegerType(16)
i32 = IntegerType(32)
i64 = IntegerType(64)
half = FloatType("half")
f32 = FloatType("float")
f64 = FloatType("double")
ptr = PointerType()  # opaque pointer


def pointer_to(pointee: Type, addrspace: int = 0) -> PointerType:
    """A typed pointer ``pointee*``."""
    return PointerType(pointee, addrspace)


def array_of(element: Type, *counts: int) -> Type:
    """Nested array type; ``array_of(f32, 4, 8)`` is ``[4 x [8 x float]]``."""
    t: Type = element
    for count in reversed(counts):
        t = ArrayType(t, count)
    return t


def struct_of(*elements: Type, name: Optional[str] = None, packed: bool = False) -> StructType:
    return StructType(elements, name=name, packed=packed)


def vector_of(element: Type, count: int) -> VectorType:
    return VectorType(element, count)


def function_type(return_type: Type, params: Sequence[Type], vararg: bool = False) -> FunctionType:
    return FunctionType(return_type, params, vararg)
