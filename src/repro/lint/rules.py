"""The HLS-compatibility rule registry.

Every legality invariant of "LLVM IR the old Vitis-style frontend can
read" lives here as one individually-addressable :class:`LintRule`:

* a **stable code** (``REPRO-LINT-NNN``, append-only — codes are never
  renumbered or reused, so logs, golden refusals and CI annotations stay
  meaningful across versions);
* a short **name** (kebab-case, usable on the CLI);
* a **severity** — ``error`` for constructs the strict frontend rejects
  outright, ``warning`` for shapes it tolerates but that cost directives,
  memory-analysis precision or interface quality;
* a machine-readable **description** (rendered into ``docs/lint-rules.md``
  by ``python -m repro lint rules``);
* a **matcher** over :class:`repro.ir.Module` that yields findings.

The conformance framework in ``tests/lint/`` enforces that every rule
registered here ships one minimal triggering fixture and one clean
fixture — the registry can never silently outgrow its tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..ir.instructions import (
    BinaryOperator,
    Branch,
    Call,
    CondBranch,
    ExtractValue,
    FCmp,
    Freeze,
    GetElementPtr,
    InsertValue,
)
from ..ir.metadata import decode_loop_directives
from ..ir.module import Function, Module
from ..ir.types import ArrayType, StructType
from ..ir.values import ConstantInt, PoisonValue

__all__ = [
    "LintFinding",
    "LintRule",
    "LINT_RULES",
    "lint_rule",
    "all_rules",
    "get_rule",
    "resolve_rules",
    "SEVERITIES",
]

SEVERITIES = ("error", "warning")

#: What a finding location tuple looks like as yielded by matchers:
#: ``(message, function_name_or_None, location_or_None)``.
_Match = Tuple[str, Optional[str], Optional[str]]


@dataclass
class LintFinding:
    """One rule violation in one module."""

    code: str
    rule: str
    severity: str
    message: str
    function: Optional[str] = None
    location: Optional[str] = None

    def format(self) -> str:
        where = []
        if self.function:
            where.append(f"@{self.function}")
        if self.location:
            where.append(self.location)
        loc = (" " + " ".join(where)) if where else ""
        return f"{self.severity}[{self.code}] {self.rule}{loc}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "function": self.function,
            "location": self.location,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LintFinding":
        return cls(
            code=data["code"],
            rule=data["rule"],
            severity=data.get("severity", "error"),
            message=data.get("message", ""),
            function=data.get("function"),
            location=data.get("location"),
        )


@dataclass(frozen=True)
class LintRule:
    """One registered HLS-compatibility rule."""

    code: str
    name: str
    severity: str
    description: str
    matcher: Callable[[Module], Iterator[_Match]] = field(compare=False)
    #: Backend ids (``repro.backends``) this rule applies to; ``None``
    #: means backend-neutral (runs for every backend).  A dynamically
    #: scheduled backend e.g. drops the static-II metadata rules but
    #: gains token-discipline rules of its own.
    backends: Optional[Tuple[str, ...]] = None

    def applies_to(self, backend: Optional[str]) -> bool:
        """Whether this rule is in the default set for ``backend``
        (``None`` = no backend context: everything applies)."""
        return (
            backend is None
            or self.backends is None
            or backend in self.backends
        )

    def check(self, module: Module) -> List[LintFinding]:
        """Run this rule's matcher, stamping findings with code/severity."""
        return [
            LintFinding(
                code=self.code,
                rule=self.name,
                severity=self.severity,
                message=message,
                function=function,
                location=location,
            )
            for message, function, location in self.matcher(module)
        ]


#: The registry, keyed by stable code.  Append-only.
LINT_RULES: Dict[str, LintRule] = {}
_BY_NAME: Dict[str, LintRule] = {}


def lint_rule(
    code: str,
    name: str,
    severity: str,
    description: str,
    backends: Optional[Tuple[str, ...]] = None,
):
    """Class-less registration decorator for rule matcher functions.

    ``backends`` scopes the rule to specific synthesis backends (ids from
    the ``repro.backends`` registry); ``None`` = backend-neutral.
    """

    def register(matcher: Callable[[Module], Iterator[_Match]]):
        if not (code.startswith("REPRO-LINT-") and code[11:].isdigit()
                and len(code[11:]) == 3):
            raise ValueError(f"lint rule code must be REPRO-LINT-NNN, got {code!r}")
        if severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {severity!r}")
        if not description.strip():
            raise ValueError(f"rule {code} needs a non-empty description")
        if code in LINT_RULES:
            raise ValueError(f"duplicate lint rule code {code}")
        if name in _BY_NAME:
            raise ValueError(f"duplicate lint rule name {name!r}")
        rule = LintRule(
            code=code,
            name=name,
            severity=severity,
            description=" ".join(description.split()),
            matcher=matcher,
            backends=tuple(backends) if backends is not None else None,
        )
        LINT_RULES[code] = rule
        _BY_NAME[name] = rule
        return matcher

    return register


def all_rules() -> List[LintRule]:
    """Every registered rule, in stable code order."""
    return [LINT_RULES[code] for code in sorted(LINT_RULES)]


def get_rule(code_or_name: str) -> LintRule:
    rule = LINT_RULES.get(code_or_name) or _BY_NAME.get(code_or_name)
    if rule is None:
        raise KeyError(
            f"unknown lint rule {code_or_name!r}; "
            f"have {sorted(LINT_RULES)} / {sorted(_BY_NAME)}"
        )
    return rule


def resolve_rules(select=None, disable=(), backend=None) -> List[LintRule]:
    """The rule set to run: ``select`` (codes or names; None = all)
    minus ``disable``.

    ``backend`` filters the *default* set by per-backend applicability —
    an explicit ``select`` bypasses the filter (naming a rule means you
    want it, whatever the backend; the conformance tests rely on this)."""
    if select is not None:
        rules = [get_rule(s) for s in select]
    else:
        rules = [r for r in all_rules() if r.applies_to(backend)]
    dropped = {get_rule(d).code for d in disable}
    return [r for r in rules if r.code not in dropped]


# -- helpers ------------------------------------------------------------------


def _defined(module: Module) -> Iterator[Function]:
    return iter(module.defined_functions())


def _insts(fn: Function):
    for block in fn.blocks:
        for inst in block.instructions:
            yield inst


# -- the rules ----------------------------------------------------------------


@lint_rule(
    "REPRO-LINT-001",
    "no-freeze",
    "error",
    "The `freeze` instruction (LLVM >= 10) postdates the HLS frontend's "
    "fork and is rejected at ingestion; the adaptor's freeze-elim pass "
    "must have replaced every freeze with its operand.",
)
def _no_freeze(module: Module) -> Iterator[_Match]:
    for fn in _defined(module):
        for inst in _insts(fn):
            if isinstance(inst, Freeze):
                yield (
                    f"'freeze' instruction {inst.ref()} survives adaptation",
                    fn.name,
                    inst.ref(),
                )


@lint_rule(
    "REPRO-LINT-002",
    "typed-pointers",
    "error",
    "Opaque pointers (`ptr`) are not understood by the old fork: the "
    "module must be in typed-pointer mode and no argument or instruction "
    "result may carry an opaque pointer type.",
)
def _typed_pointers(module: Module) -> Iterator[_Match]:
    if module.opaque_pointers:
        yield ("module is still flagged opaque-pointer mode", None, None)
    for fn in _defined(module):
        for arg in fn.arguments:
            if arg.type.is_opaque_pointer:
                yield (
                    f"argument %{arg.name} has opaque pointer type",
                    fn.name,
                    f"%{arg.name}",
                )
        for inst in _insts(fn):
            if inst.type.is_opaque_pointer:
                yield (
                    f"instruction {inst.ref()} produces an opaque pointer",
                    fn.name,
                    inst.ref(),
                )


@lint_rule(
    "REPRO-LINT-003",
    "no-poison",
    "error",
    "`poison` constants (LLVM >= 12) are unknown to the old fork; the "
    "attr-scrub pass must have rewritten them to `undef`.",
)
def _no_poison(module: Module) -> Iterator[_Match]:
    for fn in _defined(module):
        for inst in _insts(fn):
            for op in inst.operands:
                if isinstance(op, PoisonValue):
                    yield (
                        f"'poison' operand on {inst.ref()}",
                        fn.name,
                        inst.ref(),
                    )


@lint_rule(
    "REPRO-LINT-004",
    "intrinsic-whitelist",
    "error",
    "Only the old fork's intrinsic families (math, typed-pointer "
    "memcpy/memset spellings) may be called or declared; anything else "
    "(post-LLVM-12 min/max/abs, opaque-pointer spellings, optimisation "
    "markers) must have been legalised away.",
)
def _intrinsic_whitelist(module: Module) -> Iterator[_Match]:
    from ..hls.frontend import HLS_SUPPORTED_INTRINSIC_PREFIXES

    def supported(name: str) -> bool:
        return any(name.startswith(p) for p in HLS_SUPPORTED_INTRINSIC_PREFIXES)

    for fn in _defined(module):
        for inst in _insts(fn):
            if isinstance(inst, Call) and inst.is_intrinsic:
                name = inst.callee.name
                if not supported(name):
                    yield (
                        f"call to non-whitelisted intrinsic @{name}",
                        fn.name,
                        inst.ref(),
                    )
    for decl in module.declarations():
        if decl.name.startswith("llvm.") and not supported(decl.name):
            yield (
                f"declaration of non-whitelisted intrinsic @{decl.name}",
                None,
                f"@{decl.name}",
            )


@lint_rule(
    "REPRO-LINT-005",
    "no-struct-ssa",
    "error",
    "Struct-typed SSA aggregates (memref descriptors threaded through "
    "insertvalue/extractvalue) defeat the HLS memory analysis and are "
    "rejected; struct-flatten plus DCE must have dissolved the chains.",
)
def _no_struct_ssa(module: Module) -> Iterator[_Match]:
    for fn in _defined(module):
        for inst in _insts(fn):
            if isinstance(inst, InsertValue) and isinstance(
                inst.aggregate.type, StructType
            ):
                yield (
                    f"struct-typed insertvalue {inst.ref()}",
                    fn.name,
                    inst.ref(),
                )
            elif isinstance(inst, ExtractValue) and isinstance(
                inst.aggregate.type, StructType
            ):
                yield (
                    f"struct-typed extractvalue {inst.ref()}",
                    fn.name,
                    inst.ref(),
                )


@lint_rule(
    "REPRO-LINT-006",
    "gep-canonical-shape",
    "warning",
    "Memory accesses should use the structured subscript form the HLS "
    "memory analysis can reason about: GEPs step through an aggregate "
    "source type with a leading constant-zero index, and GEP-of-GEP "
    "chains are merged.",
)
def _gep_canonical_shape(module: Module) -> Iterator[_Match]:
    for fn in _defined(module):
        for inst in _insts(fn):
            if not isinstance(inst, GetElementPtr):
                continue
            if isinstance(inst.pointer, GetElementPtr):
                yield (
                    f"unmerged GEP-of-GEP chain at {inst.ref()}",
                    fn.name,
                    inst.ref(),
                )
            if not inst.source_type.is_aggregate:
                yield (
                    f"linear (flattened) access at {inst.ref()}: source type "
                    f"{inst.source_type} is not an aggregate",
                    fn.name,
                    inst.ref(),
                )
            else:
                first = inst.indices[0] if inst.indices else None
                if not (isinstance(first, ConstantInt) and first.value == 0):
                    yield (
                        f"aggregate GEP {inst.ref()} does not lead with a "
                        f"constant-zero index",
                        fn.name,
                        inst.ref(),
                    )


@lint_rule(
    "REPRO-LINT-007",
    "hls-loop-metadata",
    "warning",
    "`!llvm.loop` attachments must be well-formed (attached to a branch "
    "terminator, carrying decodable directives) and spelled in the HLS "
    "dialect (`fpga.loop.*`); the old fork silently drops modern "
    "spellings, losing pipeline/unroll intent.  Static backend only: a "
    "dynamically scheduled backend pipelines without directives, so a "
    "dropped spelling costs it nothing.",
    backends=("static",),
)
def _hls_loop_metadata(module: Module) -> Iterator[_Match]:
    for fn in _defined(module):
        for inst in _insts(fn):
            node = inst.metadata.get("llvm.loop")
            if node is None:
                continue
            if not isinstance(inst, (Branch, CondBranch)):
                yield (
                    f"!llvm.loop attached to non-branch {inst.ref()}",
                    fn.name,
                    inst.ref(),
                )
            directives, dialects = decode_loop_directives(node)
            if "modern" in dialects:
                yield (
                    "modern !llvm.loop spelling would be dropped by the "
                    "frontend (directives lost)",
                    fn.name,
                    inst.ref(),
                )
            if not dialects and len(node.operands) > 1:
                yield (
                    f"!llvm.loop node on {inst.ref()} carries no decodable "
                    f"directive",
                    fn.name,
                    inst.ref(),
                )


@lint_rule(
    "REPRO-LINT-008",
    "interface-contract",
    "warning",
    "Top functions with memref provenance must have their expanded "
    "descriptor signature collapsed to one pointer per array, an "
    "InterfaceSpec derived per argument, and (once typed) an array-typed "
    "pointee on every ap_memory buffer.",
)
def _interface_contract(module: Module) -> Iterator[_Match]:
    for fn in _defined(module):
        memrefs = getattr(fn, "hls_memref_args", None) or {}
        if memrefs:
            components = set()
            for base, info in memrefs.items():
                components.update(
                    c for c in info.get("components", ()) if c != base
                )
            leftovers = [a.name for a in fn.arguments if a.name in components]
            if leftovers:
                yield (
                    f"memref-expanded signature not collapsed: descriptor "
                    f"component argument(s) {', '.join(sorted(leftovers))} "
                    f"remain",
                    fn.name,
                    None,
                )
            if not fn.hls_interfaces:
                yield (
                    "no InterfaceSpec derived despite memref provenance",
                    fn.name,
                    None,
                )
        by_name = {a.name: a for a in fn.arguments}
        for spec in fn.hls_interfaces:
            if spec.mode != "ap_memory":
                continue
            arg = by_name.get(spec.arg_name)
            if arg is None:
                yield (
                    f"ap_memory interface {spec.arg_name!r} names no "
                    f"argument",
                    fn.name,
                    None,
                )
            elif not module.opaque_pointers and not (
                arg.type.is_typed_pointer
                and isinstance(arg.type.pointee, ArrayType)
            ):
                yield (
                    f"ap_memory buffer %{arg.name} is not an array-typed "
                    f"pointer ({arg.type})",
                    fn.name,
                    f"%{arg.name}",
                )


@lint_rule(
    "REPRO-LINT-009",
    "no-modern-attributes",
    "warning",
    "Post-fork function/parameter attributes (willreturn, mustprogress, "
    "noundef, ...) and modern fast-math spellings (afn/reassoc/contract) "
    "are unknown strings to the old fork; attr-scrub should have "
    "normalised them.",
)
def _no_modern_attributes(module: Module) -> Iterator[_Match]:
    from ..adaptor.attr_scrub import (
        _MODERN_FMF,
        _MODERN_FN_ATTRS,
        _MODERN_PARAM_ATTRS,
    )

    for fn in _defined(module):
        modern = sorted(fn.attributes & _MODERN_FN_ATTRS)
        if modern:
            yield (
                f"modern function attribute(s): {', '.join(modern)}",
                fn.name,
                None,
            )
        for arg in fn.arguments:
            modern = sorted(arg.attributes & _MODERN_PARAM_ATTRS)
            if modern:
                yield (
                    f"modern parameter attribute(s) on %{arg.name}: "
                    f"{', '.join(modern)}",
                    fn.name,
                    f"%{arg.name}",
                )
        for inst in _insts(fn):
            if isinstance(inst, (BinaryOperator, FCmp, Call)):
                modern = sorted(inst.fast_math & _MODERN_FMF)
                if modern:
                    yield (
                        f"modern fast-math flag(s) on {inst.ref()}: "
                        f"{', '.join(modern)}",
                        fn.name,
                        inst.ref(),
                    )


@lint_rule(
    "REPRO-LINT-010",
    "struct-flat-values",
    "error",
    "No SSA register or function argument may be struct-typed: the HLS "
    "interface maps arrays and scalars only, and the memory analysis "
    "cannot model struct-typed values.",
)
def _struct_flat_values(module: Module) -> Iterator[_Match]:
    for fn in _defined(module):
        for arg in fn.arguments:
            t = arg.type
            if isinstance(t, StructType):
                yield (
                    f"struct-typed argument %{arg.name} ({t})",
                    fn.name,
                    f"%{arg.name}",
                )
        for inst in _insts(fn):
            # insertvalue/extractvalue aggregates are no-struct-ssa's
            # business; this rule catches every *other* struct-typed
            # register (loads, phis, selects, calls).
            if isinstance(inst, (InsertValue, ExtractValue)):
                continue
            if isinstance(inst.type, StructType):
                yield (
                    f"struct-typed SSA register {inst.ref()} ({inst.type})",
                    fn.name,
                    inst.ref(),
                )


@lint_rule(
    "REPRO-LINT-011",
    "dataflow-ignored-directives",
    "warning",
    "Pipeline/II directives address a static scheduler; a dynamically "
    "scheduled (dataflow) backend derives II from token flow and ignores "
    "them, so their presence signals intent the chosen backend cannot "
    "honour — drop them or target the static backend.",
    backends=("dataflow",),
)
def _dataflow_ignored_directives(module: Module) -> Iterator[_Match]:
    for fn in _defined(module):
        for inst in _insts(fn):
            node = inst.metadata.get("llvm.loop")
            if node is None:
                continue
            directives, _dialects = decode_loop_directives(node)
            if directives.pipeline or directives.ii:
                spelled = []
                if directives.pipeline:
                    spelled.append("pipeline")
                if directives.ii:
                    spelled.append(f"II={directives.ii}")
                yield (
                    f"static-scheduling directive(s) {', '.join(spelled)} "
                    f"ignored by the dataflow backend (II is emergent)",
                    fn.name,
                    inst.ref(),
                )


@lint_rule(
    "REPRO-LINT-012",
    "dataflow-unbanked-buffer",
    "warning",
    "A buffer with several access sites but a single bank serialises a "
    "dataflow circuit on its two memory ports, capping the emergent II "
    "regardless of token parallelism; cyclic array partitioning restores "
    "bank-level concurrency.",
    backends=("dataflow",),
)
def _dataflow_unbanked_buffer(module: Module) -> Iterator[_Match]:
    # Lazy import: the memory model lives in repro.hls, which the lint
    # registry must not pull in at import time (rule registration happens
    # on ``import repro.lint`` from light-weight contexts).
    from ..hls.memory import PORTS_PER_BANK, MemoryModel

    for fn in _defined(module):
        memory = MemoryModel(fn)
        sites: Dict[int, int] = {}
        names: Dict[int, str] = {}
        banks: Dict[int, int] = {}
        for inst in _insts(fn):
            site = memory.site_for(inst)
            if site is None:
                continue
            key = id(site.buffer)
            sites[key] = sites.get(key, 0) + 1
            names[key] = site.buffer.name
            banks[key] = site.buffer.banks
        for key, count in sorted(sites.items(), key=lambda kv: names[kv[0]]):
            if count > PORTS_PER_BANK and banks[key] <= 1:
                yield (
                    f"buffer %{names[key]} has {count} access sites but a "
                    f"single bank ({PORTS_PER_BANK} ports): token flow "
                    f"serialises on the memory; consider array partitioning",
                    fn.name,
                    f"%{names[key]}",
                )
