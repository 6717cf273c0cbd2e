"""Memory subsystem model: buffers, BRAM banks, ports, array partitioning.

Every array the kernel touches is a *buffer*: either an ``ap_memory``
interface argument or a local ``alloca``.  A buffer maps to one or more
BRAM banks (array partitioning multiplies banks); each bank is true
dual-port (2 accesses/cycle), matching 7-series BRAM18.

``access_bank`` resolves which bank a given load/store can hit, using the
affine summary of its partition-dimension subscript: a constant residue
pins the access to one bank; otherwise the access conflicts with every
bank of the buffer (conservative, like Vitis when it cannot prove banking).
:class:`PortLedger` holds that port rule for every scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.instructions import Alloca, GetElementPtr, Instruction, Load, Store
from ..ir.module import Function
from ..ir.sidetable import ValueSideTable
from ..ir.types import ArrayType, Type
from ..ir.values import Argument, ConstantInt, Value
from .affine_summary import AffineSummary, summarize_index

__all__ = ["AccessSite", "BufferInfo", "MemoryModel", "PortLedger", "port_banks"]

PORTS_PER_BANK = 2
BRAM18_BITS = 18 * 1024


@dataclass
class BufferInfo:
    name: str
    depth: int
    element_bits: int
    dims: Tuple[int, ...]
    banks: int = 1
    partition: Optional[dict] = None  # {"kind", "factor", "dim"}
    is_local: bool = False

    @property
    def ports(self) -> int:
        return self.banks * PORTS_PER_BANK

    def bram18_count(self) -> int:
        """BRAM18 primitives: per bank, ceil(bank bits / 18Kb), min 1.

        Complete partitioning moves the array into registers: 0 BRAM.
        """
        if self.partition and self.partition.get("kind") == "complete":
            return 0
        per_bank_depth = (self.depth + self.banks - 1) // self.banks
        per_bank_bits = per_bank_depth * self.element_bits
        per_bank = max(1, -(-per_bank_bits // BRAM18_BITS))
        return per_bank * self.banks


@dataclass
class AccessSite:
    """One load/store resolved to its buffer and (maybe) bank."""

    inst: Instruction
    buffer: BufferInfo
    index_summaries: Tuple[AffineSummary, ...]  # per GEP index (post-leading-0)
    bank: Optional[int] = None  # None = may hit any bank


def port_banks(site: AccessSite) -> Sequence[int]:
    """The banks an access takes a port on: its own, or every bank of its
    buffer when the bank is unknown."""
    return range(site.buffer.banks) if site.bank is None else (site.bank,)


class PortLedger:
    """Memory-port use per (buffer, bank, slot), at most
    ``PORTS_PER_BANK`` per bank and slot (:func:`port_banks` says which
    banks an access takes).  A slot is a cycle; with a ``period`` it is
    ``cycle % period``, the slot of a modulo reservation table."""

    def __init__(self, period: int = 0):
        self.period = period
        self._used: Dict[Tuple[int, int, int], int] = {}

    def acquire(self, site: AccessSite, cycle: int,
                tries: Optional[int] = None) -> Optional[int]:
        """Take ``site``'s ports at the first cycle from ``cycle`` on where
        they are all free, and return that cycle; None when ``tries``
        cycles were all full."""
        buf = id(site.buffer)
        banks = port_banks(site)
        used = self._used
        end = None if tries is None else cycle + tries
        while cycle != end:
            slot = cycle % self.period if self.period else cycle
            for bank in banks:
                if used.get((buf, bank, slot), 0) >= PORTS_PER_BANK:
                    break
            else:
                for bank in banks:
                    key = (buf, bank, slot)
                    used[key] = used.get(key, 0) + 1
                return cycle
            cycle += 1
        return None


class MemoryModel:
    def __init__(self, fn: Function):
        self.fn = fn
        self.buffers: Dict[str, BufferInfo] = {}
        self._site_cache: Dict[int, Optional[AccessSite]] = {}
        # Local (alloca-backed) buffer names, kept off the IR objects: the
        # instruction classes are slotted, and analysis-private annotations
        # belong in a side table scoped to this model, not on the IR.
        self._local_buffer_names: ValueSideTable[str] = ValueSideTable(
            "hls-buffer-name"
        )
        self._collect_buffers()

    # -- buffer discovery -------------------------------------------------------
    def _collect_buffers(self) -> None:
        specs = {s.arg_name: s for s in self.fn.hls_interfaces if s.mode == "ap_memory"}
        for arg in self.fn.arguments:
            spec = specs.get(arg.name)
            if spec is not None:
                partition = spec.partition
                self.buffers[arg.name] = BufferInfo(
                    name=arg.name,
                    depth=spec.depth or 1,
                    element_bits=spec.element_bits or 32,
                    dims=tuple(spec.dims),
                    banks=self._bank_count(spec.depth or 1, tuple(spec.dims), partition),
                    partition=partition,
                )
            elif arg.type.is_pointer:
                # Pointer arg with no interface spec (unadapted / lenient
                # mode): single-bank buffer of unknown shape.
                pointee = arg.type.pointee
                depth = pointee.count if isinstance(pointee, ArrayType) else 1024
                bits = (
                    pointee.flattened_element().bit_width()
                    if isinstance(pointee, ArrayType)
                    else 32
                )
                dims = pointee.dims() if isinstance(pointee, ArrayType) else (depth,)
                self.buffers[arg.name] = BufferInfo(
                    name=arg.name, depth=depth, element_bits=bits, dims=dims
                )
        for block in self.fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, Alloca):
                    at = inst.allocated_type
                    if isinstance(at, ArrayType):
                        depth = at.count if not at.element.is_array else _total(at)
                        name = inst.name or f"local{len(self.buffers)}"
                        self.buffers[name] = BufferInfo(
                            name=name,
                            depth=_total(at),
                            element_bits=at.flattened_element().bit_width(),
                            dims=at.dims(),
                            is_local=True,
                        )
                        self._local_buffer_names.set(inst, name)

    @staticmethod
    def _bank_count(depth: int, dims: Tuple[int, ...], partition: Optional[dict]) -> int:
        if not partition:
            return 1
        kind = partition["kind"]
        if kind == "complete":
            dim = partition.get("dim", 0)
            return dims[dim] if dims and dim < len(dims) else depth
        return max(1, int(partition.get("factor", 1)))

    # -- access resolution -----------------------------------------------------------
    def site_for(self, inst: Instruction) -> Optional[AccessSite]:
        key = id(inst)
        if key in self._site_cache:
            return self._site_cache[key]
        site = self._resolve(inst)
        self._site_cache[key] = site
        return site

    def _resolve(self, inst: Instruction) -> Optional[AccessSite]:
        if isinstance(inst, Load):
            pointer = inst.pointer
        elif isinstance(inst, Store):
            pointer = inst.pointer
        else:
            return None
        base, summaries = self._trace_pointer(pointer)
        if base is None:
            return None
        buffer = self._buffer_for_base(base)
        if buffer is None:
            return None
        bank = self._bank_for(buffer, summaries)
        return AccessSite(inst, buffer, tuple(summaries), bank)

    def _trace_pointer(self, pointer: Value):
        """Follow GEP chains to the base buffer, accumulating subscripts."""
        summaries: List[AffineSummary] = []
        node = pointer
        depth = 0
        while depth < 16:
            depth += 1
            if isinstance(node, GetElementPtr):
                idx = list(node.indices)
                # Structured form: leading 0 steps over the array type.
                if idx and isinstance(idx[0], ConstantInt) and idx[0].value == 0 and len(idx) > 1:
                    idx = idx[1:]
                summaries = [summarize_index(v) for v in idx] + summaries
                node = node.pointer
                continue
            break
        if isinstance(node, (Argument, Alloca)):
            return node, summaries
        return None, summaries

    def _buffer_for_base(self, base) -> Optional[BufferInfo]:
        if isinstance(base, Argument):
            return self.buffers.get(base.name)
        if isinstance(base, Alloca):
            name = self._local_buffer_names.get(base)
            return self.buffers.get(name) if name else None
        return None

    def _bank_for(self, buffer: BufferInfo, summaries: List[AffineSummary]) -> Optional[int]:
        if buffer.banks <= 1:
            return 0
        partition = buffer.partition or {}
        kind = partition.get("kind", "cyclic")
        dim = partition.get("dim", len(buffer.dims) - 1)
        if dim >= len(summaries):
            return None
        summary = summaries[dim] if len(summaries) == len(buffer.dims) else None
        if summary is None:
            return None
        if kind in ("cyclic", "complete"):
            # Bank = subscript mod banks; resolvable when the variable part
            # has coefficients divisible by the bank count (then the residue
            # is the constant term's residue).
            if all(c % buffer.banks == 0 for c in summary.coeffs.values()):
                return summary.const % buffer.banks
            if not summary.coeffs:
                return summary.const % buffer.banks
            return None
        if kind == "block":
            block_size = max(
                1, (buffer.dims[dim] + buffer.banks - 1) // buffer.banks
            )
            if not summary.coeffs:
                return (summary.const // block_size) % buffer.banks
            return None
        return None

    def total_bram18(self) -> int:
        return sum(b.bram18_count() for b in self.buffers.values())


def _total(t: ArrayType) -> int:
    n = 1
    for d in t.dims():
        n *= d
    return n
