"""Metadata for the mini-LLVM IR.

Two layers live here:

* Generic LLVM-style metadata nodes (``MDString``, ``MDNode``,
  ``ValueAsMetadata``) — enough to model ``!llvm.loop`` attachments the way
  MLIR's LLVM lowering emits them.
* Structured HLS directive records (:class:`LoopDirectives`,
  :class:`InterfaceSpec`) plus the encode/decode helpers between the two.
  The *modern* encoding (what MLIR emits) and the *HLS* encoding (what the
  Vitis-style frontend understands) use different metadata string spellings;
  translating one into the other is the job of the adaptor's
  ``loop_metadata`` pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .interning import current_intern_context
from .values import ConstantInt, Value

__all__ = [
    "Metadata",
    "MDString",
    "MDNode",
    "ValueAsMetadata",
    "intern_mdnode",
    "LoopDirectives",
    "InterfaceSpec",
    "MODERN_PIPELINE_II",
    "MODERN_UNROLL_COUNT",
    "MODERN_UNROLL_FULL",
    "MODERN_FLATTEN",
    "MODERN_DATAFLOW",
    "HLS_PIPELINE_ENABLE",
    "HLS_PIPELINE_II",
    "HLS_UNROLL_COUNT",
    "HLS_UNROLL_FULL",
    "HLS_FLATTEN",
    "HLS_DATAFLOW",
    "encode_loop_directives",
    "decode_loop_directives",
]


class Metadata:
    """Base class for metadata entities."""

    __slots__ = ("__weakref__",)


def _intern_md(key: tuple, factory):
    table = current_intern_context().metadata
    existing = table.get(key)
    if existing is None:
        existing = factory()
        table[key] = existing
    return existing


class MDString(Metadata):
    """Interned metadata string: same text, same object."""

    __slots__ = ("text",)
    text: str

    def __new__(cls, text: str) -> "MDString":
        def make() -> "MDString":
            obj = super(MDString, cls).__new__(cls)
            obj.text = text
            return obj

        return _intern_md(("s", text), make)

    def __reduce__(self):
        return (MDString, (self.text,))

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, MDString) and other.text == self.text
        )

    def __hash__(self) -> int:
        return hash(("mdstring", self.text))

    def __repr__(self) -> str:
        return f'!"{self.text}"'


class ValueAsMetadata(Metadata):
    """A constant riding in metadata.  Interned for the common
    integer-constant case (``i32 4`` in directive leaves), so structurally
    equal wrappers are identity-equal; wrappers of other values stay
    unique per construction."""

    __slots__ = ("value",)
    value: Value

    def __new__(cls, value: Value) -> "ValueAsMetadata":
        def make() -> "ValueAsMetadata":
            obj = super(ValueAsMetadata, cls).__new__(cls)
            obj.value = value
            return obj

        if isinstance(value, ConstantInt):
            return _intern_md(("v", id(value.type), value.value), make)
        return make()

    def __reduce__(self):
        return (ValueAsMetadata, (self.value,))

    def __repr__(self) -> str:
        return f"{self.value.type} {self.value.ref()}"


class MDNode(Metadata):
    """A metadata tuple.  ``distinct`` nodes are unique even when their
    operands match (needed for ``!llvm.loop`` self-referential ids).

    The constructor does *not* intern (the parser patches placeholder
    nodes in place while resolving forward references); pass finished
    non-distinct nodes through :func:`intern_mdnode` to canonicalize.
    """

    __slots__ = ("operands", "distinct")

    def __init__(self, operands: Sequence[Union[Metadata, None]] = (), distinct: bool = False):
        self.operands: List[Optional[Metadata]] = list(operands)
        self.distinct = distinct

    def __reduce__(self):
        if self.distinct:
            # Distinct nodes stay unique; rebuild verbatim.  The customary
            # self-reference slot is ``None``, so operand tuples never cycle.
            return (MDNode, (tuple(self.operands), True))
        return (_rebuild_interned_mdnode, (tuple(self.operands),))

    def __repr__(self) -> str:
        return f"!{{{', '.join(repr(op) for op in self.operands)}}}"


def _rebuild_interned_mdnode(operands: tuple) -> "MDNode":
    """Unpickle target for non-distinct nodes: re-intern in the receiving
    process so shared structure stays shared."""
    return intern_mdnode(MDNode(operands))


def metadata_intern_key(op: Optional[Metadata]):
    """A hashable canonical key for one metadata operand.

    Interned operands key by content; everything else (distinct nodes,
    wrappers of non-constant values) keys by identity.
    """
    if op is None:
        return None
    if isinstance(op, MDString):
        return ("s", op.text)
    if isinstance(op, ValueAsMetadata):
        value = op.value
        if isinstance(value, ConstantInt):
            return ("v", id(value.type), value.value)
        return ("o", id(op))
    if isinstance(op, MDNode) and not op.distinct:
        return ("n", tuple(metadata_intern_key(child) for child in op.operands))
    return ("d", id(op))


def intern_mdnode(node: MDNode) -> MDNode:
    """Canonicalize ``node``: structurally equal non-distinct nodes come
    back as the same object (recursively, operands first).  Distinct nodes
    pass through with their operands canonicalized in place."""
    for i, op in enumerate(node.operands):
        if isinstance(op, MDNode) and op is not node:
            node.operands[i] = intern_mdnode(op)
    if node.distinct:
        return node
    key = ("node", tuple(metadata_intern_key(op) for op in node.operands))
    return _intern_md(key, lambda: node)


# -- metadata spellings ------------------------------------------------------

# The "modern" spellings are what our MLIR lowering attaches (mirroring how
# upstream MLIR/Polygeist encode HLS intent on !llvm.loop).
MODERN_PIPELINE_II = "llvm.loop.pipeline.initiationinterval"
MODERN_UNROLL_COUNT = "llvm.loop.unroll.count"
MODERN_UNROLL_FULL = "llvm.loop.unroll.full"
MODERN_FLATTEN = "llvm.loop.flatten.enable"
MODERN_DATAFLOW = "llvm.loop.dataflow.enable"

# The "HLS" spellings are what the Vitis-style frontend fork understands
# (mirroring the xilinx/HLS LLVM fork's loop metadata dialect).
HLS_PIPELINE_ENABLE = "fpga.loop.pipeline.enable"
HLS_PIPELINE_II = "fpga.loop.pipeline.ii"
HLS_UNROLL_COUNT = "fpga.loop.unroll.count"
HLS_UNROLL_FULL = "fpga.loop.unroll.full"
HLS_FLATTEN = "fpga.loop.flatten"
HLS_DATAFLOW = "fpga.loop.dataflow"

_MODERN_KEYS = {
    MODERN_PIPELINE_II,
    MODERN_UNROLL_COUNT,
    MODERN_UNROLL_FULL,
    MODERN_FLATTEN,
    MODERN_DATAFLOW,
}
_HLS_KEYS = {
    HLS_PIPELINE_ENABLE,
    HLS_PIPELINE_II,
    HLS_UNROLL_COUNT,
    HLS_UNROLL_FULL,
    HLS_FLATTEN,
    HLS_DATAFLOW,
}


@dataclass
class LoopDirectives:
    """Structured HLS directives for one loop."""

    pipeline: bool = False
    ii: Optional[int] = None
    unroll: Optional[int] = None  # unroll factor; None = no unrolling
    unroll_full: bool = False
    flatten: bool = False
    dataflow: bool = False

    def is_empty(self) -> bool:
        return not (
            self.pipeline
            or self.ii is not None
            or self.unroll is not None
            or self.unroll_full
            or self.flatten
            or self.dataflow
        )


@dataclass
class InterfaceSpec:
    """HLS interface for one top-function argument.

    ``mode`` follows Vitis conventions: ``ap_memory`` (BRAM-backed array),
    ``m_axi`` (burst master), ``s_axilite`` (scalar / control) — our HLS
    engine consumes ``ap_memory`` and scalar modes.
    """

    arg_name: str
    mode: str  # "ap_memory" | "m_axi" | "s_axilite" | "ap_none"
    depth: Optional[int] = None
    element_bits: Optional[int] = None
    dims: tuple = ()
    partition: Optional[dict] = None  # {"kind": "cyclic"|"block"|"complete", "factor": int, "dim": int}


def _ii_from_node(node: MDNode) -> Optional[int]:
    for op in node.operands[1:]:
        if isinstance(op, ValueAsMetadata) and isinstance(op.value, ConstantInt):
            return op.value.value
    return None


def encode_loop_directives(
    directives: LoopDirectives, *, dialect: str = "modern"
) -> MDNode:
    """Build a ``!llvm.loop``-style node from structured directives.

    ``dialect`` selects the spelling family: ``"modern"`` (MLIR emission) or
    ``"hls"`` (what the strict frontend accepts).  The first operand is the
    customary self-reference slot (``None`` here; the printer materialises
    the self-cycle).
    """
    from .values import ConstantInt as CI
    from .types import i32 as _i32

    def leaf(key: str, value: Optional[int] = None) -> MDNode:
        ops: List[Metadata] = [MDString(key)]
        if value is not None:
            ops.append(ValueAsMetadata(CI(_i32, value)))
        return intern_mdnode(MDNode(ops))

    modern = dialect == "modern"
    items: List[Optional[Metadata]] = [None]  # self-reference slot
    if directives.pipeline or directives.ii is not None:
        ii = directives.ii if directives.ii is not None else 1
        if modern:
            items.append(leaf(MODERN_PIPELINE_II, ii))
        else:
            items.append(leaf(HLS_PIPELINE_ENABLE))
            items.append(leaf(HLS_PIPELINE_II, ii))
    if directives.unroll_full:
        items.append(leaf(MODERN_UNROLL_FULL if modern else HLS_UNROLL_FULL))
    elif directives.unroll is not None:
        items.append(
            leaf(MODERN_UNROLL_COUNT if modern else HLS_UNROLL_COUNT, directives.unroll)
        )
    if directives.flatten:
        items.append(leaf(MODERN_FLATTEN if modern else HLS_FLATTEN))
    if directives.dataflow:
        items.append(leaf(MODERN_DATAFLOW if modern else HLS_DATAFLOW))
    return MDNode(items, distinct=True)


def decode_loop_directives(node: MDNode) -> tuple:
    """Decode a loop metadata node into ``(directives, dialects_seen)``.

    ``dialects_seen`` is a subset of ``{"modern", "hls"}`` — the strict HLS
    frontend uses it to reject modern spellings that were never adapted.
    """
    directives = LoopDirectives()
    dialects: set = set()
    for op in node.operands:
        if not isinstance(op, MDNode) or not op.operands:
            continue
        head = op.operands[0]
        if not isinstance(head, MDString):
            continue
        key = head.text
        if key in _MODERN_KEYS:
            dialects.add("modern")
        elif key in _HLS_KEYS:
            dialects.add("hls")
        if key in (MODERN_PIPELINE_II, HLS_PIPELINE_II):
            directives.pipeline = True
            directives.ii = _ii_from_node(op)
        elif key == HLS_PIPELINE_ENABLE:
            directives.pipeline = True
        elif key in (MODERN_UNROLL_COUNT, HLS_UNROLL_COUNT):
            directives.unroll = _ii_from_node(op)
        elif key in (MODERN_UNROLL_FULL, HLS_UNROLL_FULL):
            directives.unroll_full = True
        elif key in (MODERN_FLATTEN, HLS_FLATTEN):
            directives.flatten = True
        elif key in (MODERN_DATAFLOW, HLS_DATAFLOW):
            directives.dataflow = True
    return directives, dialects
