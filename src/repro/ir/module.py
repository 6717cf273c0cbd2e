"""Module / Function / BasicBlock containers for the mini-LLVM IR."""

from __future__ import annotations

import copyreg
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .instructions import Instruction, Phi
from .metadata import MDNode
from .types import FunctionType, LabelType, PointerType, Type
from .values import Argument, GlobalValue, GlobalVariable, Value

__all__ = ["Module", "Function", "BasicBlock"]


class BasicBlock(Value):
    """A label-typed value holding a straight-line instruction list ending in
    one terminator."""

    __slots__ = ("parent", "instructions")

    def __init__(self, name: str = ""):
        super().__init__(LabelType(), name)
        self.parent: Optional["Function"] = None
        self.instructions: List[Instruction] = []

    def _touch(self) -> None:
        fn = self.parent
        if fn is not None:
            fn.version += 1

    # -- structure -----------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        self._touch()
        return inst

    def insert_before(self, position: Instruction, inst: Instruction) -> Instruction:
        idx = self.instructions.index(position)
        inst.parent = self
        self.instructions.insert(idx, inst)
        self._touch()
        return inst

    def insert_after(self, position: Instruction, inst: Instruction) -> Instruction:
        idx = self.instructions.index(position)
        inst.parent = self
        self.instructions.insert(idx + 1, inst)
        self._touch()
        return inst

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def phis(self) -> List[Phi]:
        out = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                out.append(inst)
            else:
                break
        return out

    def first_non_phi(self) -> Optional[Instruction]:
        for inst in self.instructions:
            if not isinstance(inst, Phi):
                return inst
        return None

    # -- CFG ----------------------------------------------------------------
    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return list(term.successors)

    @property
    def predecessors(self) -> List["BasicBlock"]:
        """Blocks branching here, in deterministic first-use order."""
        preds: List[BasicBlock] = []
        for use in self.uses:
            user = use.user
            if isinstance(user, Instruction) and user.is_terminator:
                block = user.parent
                if block is not None and block not in preds:
                    preds.append(block)
        return preds

    def erase_from_parent(self) -> None:
        if self.is_used:
            raise RuntimeError(f"cannot erase block {self.name}: still referenced")
        for inst in reversed(list(self.instructions)):
            if inst.is_used:
                raise RuntimeError(
                    f"cannot erase block {self.name}: instruction {inst!r} still used"
                )
            inst.erase_from_parent()
        if self.parent is not None:
            self._touch()
            self.parent.blocks.remove(self)
            self.parent = None

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.name} [{len(self.instructions)} insts]>"


class Function(GlobalValue):
    """A function definition (with blocks) or declaration (empty)."""

    __slots__ = (
        "function_type",
        "module",
        "blocks",
        "arguments",
        "attributes",
        "metadata",
        "hls_interfaces",
        "hls_partitions",
        "hls_memref_args",
        "hls_buffer_types",
        "version",
        "analyses",
    )

    def __init__(
        self,
        function_type: FunctionType,
        name: str,
        module: Optional["Module"] = None,
        arg_names: Sequence[str] = (),
    ):
        super().__init__(PointerType(), name)
        # Monotonic mutation counter.  Structural edits (block/instruction
        # insertion and removal, operand rewrites) bump it; the cached CFG
        # orders and dominator tree and the verifier's clean token key on
        # it.
        self.version = 0
        # Cached CFG orders and dominator tree, stamped with ``version``
        # (a ``repro.ir.analysis.cfg.FunctionAnalyses``, or None).
        self.analyses = None
        self.function_type = function_type
        self.module = module
        self.blocks: List[BasicBlock] = []
        self.arguments: List[Argument] = []
        self.attributes: set = set()
        self.metadata: Dict[str, MDNode] = {}
        # Structured HLS info attached by the adaptor (InterfaceSpec per arg)
        # and array-partition directives carried down from the MLIR level.
        self.hls_interfaces: list = []
        self.hls_partitions: dict = {}
        # Memref-argument provenance recorded by the MLIR lowering:
        # {arg_name: {"shape": tuple, "element_bits": int,
        #             "components": [param names]}}.
        self.hls_memref_args: dict = {}
        # Chosen pointee type per buffer argument (set by the adaptor's GEP
        # canonicalisation, consumed by pointer retyping).
        self.hls_buffer_types: dict = {}
        for i, param in enumerate(function_type.params):
            arg_name = arg_names[i] if i < len(arg_names) else f"arg{i}"
            arg = Argument(param, arg_name, i)
            arg.parent = self
            self.arguments.append(arg)

    # -- structure -------------------------------------------------------------
    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise RuntimeError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "", before: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(name or self._next_block_name())
        block.parent = self
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        self.version += 1
        return block

    def _next_block_name(self) -> str:
        existing = {b.name for b in self.blocks}
        i = len(self.blocks)
        while f"bb{i}" in existing:
            i += 1
        return f"bb{i}"

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name}>"

    # -- pickling / copying ----------------------------------------------------
    # The default slot state, minus ``analyses``: cached analyses name blocks
    # by id(), which is process-local, so a pickled or copied function
    # starts with an empty cache.
    def __getstate__(self):
        return None, {
            name: getattr(self, name)
            for name in copyreg._slotnames(type(self))
            if name != "analyses" and hasattr(self, name)
        }

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self.analyses = None


class Module:
    """Top-level IR container.

    ``opaque_pointers`` records which pointer regime the module is in:
    modern MLIR lowering emits opaque pointers; the adaptor's
    ``pointer_retyping`` pass rewrites the module into typed-pointer form and
    flips this flag, which the strict HLS frontend checks.
    """

    def __init__(self, name: str = "module", opaque_pointers: bool = True):
        self.name = name
        self.opaque_pointers = opaque_pointers
        self.functions: List[Function] = []
        self.globals: List[GlobalVariable] = []
        self.named_metadata: Dict[str, List[MDNode]] = {}
        self.source_flow: Optional[str] = None  # "mlir-adaptor" | "hls-cpp" | None
        self.target_triple: str = "fpga64-xilinx-none"

    # -- symbol table ------------------------------------------------------------
    def get_function(self, name: str) -> Optional[Function]:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        for g in self.globals:
            if g.name == name:
                return g
        return None

    def add_function(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: Sequence[str] = (),
    ) -> Function:
        if self.get_function(name) is not None:
            raise ValueError(f"function @{name} already exists in module")
        fn = Function(function_type, name, self, arg_names)
        self.functions.append(fn)
        return fn

    def declare_function(self, name: str, function_type: FunctionType) -> Function:
        """Get-or-create a declaration (used for intrinsics/libm)."""
        fn = self.get_function(name)
        if fn is not None:
            if fn.function_type is not function_type:
                raise TypeError(
                    f"redeclaration of @{name} with different type: "
                    f"{fn.function_type} vs {function_type}"
                )
            return fn
        fn = Function(function_type, name, self)
        self.functions.append(fn)
        return fn

    def add_global(
        self,
        name: str,
        value_type: Type,
        initializer=None,
        constant: bool = False,
    ) -> GlobalVariable:
        if self.get_global(name) is not None:
            raise ValueError(f"global @{name} already exists in module")
        g = GlobalVariable(
            value_type,
            name,
            initializer,
            constant,
            opaque_pointers=self.opaque_pointers,
        )
        self.globals.append(g)
        return g

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions if not f.is_declaration]

    def declarations(self) -> List[Function]:
        return [f for f in self.functions if f.is_declaration]

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions)

    def __repr__(self) -> str:
        return (
            f"<Module {self.name!r} functions={len(self.functions)} "
            f"globals={len(self.globals)} "
            f"{'opaque' if self.opaque_pointers else 'typed'}-ptr>"
        )
