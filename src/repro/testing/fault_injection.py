"""Deterministic fault injection and IR mutation fuzzing.

Two tools for hardening the adaptor pipeline:

* :class:`FaultyPass` wraps a real pass and injects a seeded fault —
  raising mid-mutation, corrupting an operand or a type, or dropping loop
  metadata.  Combined with :class:`repro.adaptor.HLSAdaptor`'s
  ``instrument`` hook (see :func:`inject_into`) it exercises the pass
  guard, rollback, crash reproducers, and recover mode end to end.

* :class:`IRMutationFuzzer` applies seeded hostile mutations to a valid
  module — opaque-pointer flips, freeze/poison insertion, unknown
  intrinsics, verifier-invariant breakage — to check the pipeline
  invariant enforced by :func:`adapt_or_reject`: **every input is either
  rejected with a structured diagnostic or produces verifier-clean,
  frontend-accepted IR that passes the HLS-compatibility linter at error
  severity**.  Anything else (a bare ``AttributeError`` escaping a pass,
  a lint-dirty module slipping past the frontend, say) is a bug.

Everything here is deterministic given the seed — CI runs fixed seeds.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from ..diagnostics.errors import CompilationError
from ..ir.instructions import Freeze, Instruction, Phi
from ..ir.module import Module
from ..ir.transforms.pass_manager import ModulePass, PassStatistics
from ..ir.types import FloatType
from ..ir.values import Constant, PoisonValue

__all__ = [
    "FAULT_MODES",
    "FaultInjected",
    "FaultyPass",
    "inject_into",
    "IRMutationFuzzer",
    "MUTATION_NAMES",
    "adapt_or_reject",
    "build_seed_module",
]

FAULT_MODES = ("raise", "corrupt-operand", "corrupt-type", "drop-loop-metadata")


class FaultInjected(RuntimeError):
    """Deliberately a *plain* RuntimeError: injected faults model
    unstructured pass bugs, and the pipeline must wrap them into
    structured :class:`repro.diagnostics.PassExecutionError`\\ s."""


class FaultyPass(ModulePass):
    """Wraps a real pass; runs it, then injects a deterministic fault.

    ``mode``:

    * ``"raise"`` — dirty the module (flip the opaque-pointer flag), then
      raise :class:`FaultInjected` mid-mutation.  Tests rollback: with a
      pass guard the dirtying must not be observable afterwards.
    * ``"corrupt-operand"`` — rewire an instruction operand to a value
      defined *later* in the same block (through the use-list-preserving
      ``set_operand``), so the post-pass verifier reports a dominance
      violation.
    * ``"corrupt-type"`` — retype a phi so the verifier's incoming-type
      check fires (falls back to operand corruption when no phi exists).
    * ``"drop-loop-metadata"`` — silently delete every ``llvm.loop``
      attachment: no crash, but directive intent is lost (the degradation
      the frontend's dropped-directive diagnostics catch).
    """

    def __init__(self, inner: ModulePass, mode: str = "raise", seed: int = 0):
        if mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {mode!r}; valid: {FAULT_MODES}")
        self.inner = inner
        self.mode = mode
        self.seed = seed
        self.name = inner.name  # keep attribution on the wrapped pass

    def run_on_module(self, module: Module, stats: PassStatistics) -> None:
        self.inner.run_on_module(module, stats)
        rng = random.Random(self.seed)
        if self.mode == "raise":
            module.opaque_pointers = not module.opaque_pointers  # mid-mutation dirt
            raise FaultInjected(
                f"injected fault in pass {self.name!r} (seed={self.seed})"
            )
        if self.mode == "corrupt-operand":
            if not _corrupt_operand(module, rng):
                raise FaultInjected(
                    f"fault injector found no corruptible operand in "
                    f"{module.name!r} after pass {self.name!r}"
                )
        elif self.mode == "corrupt-type":
            if not _corrupt_phi_type(module, rng) and not _corrupt_operand(
                module, rng
            ):
                raise FaultInjected(
                    f"fault injector found no corruptible phi/operand in "
                    f"{module.name!r} after pass {self.name!r}"
                )
        elif self.mode == "drop-loop-metadata":
            for fn in module.defined_functions():
                for inst in fn.instructions():
                    inst.metadata.pop("llvm.loop", None)


def _corrupt_operand(module: Module, rng: random.Random) -> bool:
    """Point an instruction operand at a later def in the same block."""
    candidates: List[Tuple[Instruction, int, Instruction]] = []
    for fn in module.defined_functions():
        for block in fn.blocks:
            insts = block.instructions
            for i, inst in enumerate(insts):
                if isinstance(inst, Phi):
                    continue
                for j in range(i + 1, len(insts)):
                    later = insts[j]
                    if later.is_terminator or later.type.is_void:
                        continue
                    for k, op in enumerate(inst.operands):
                        if isinstance(op, Instruction) and op.type is later.type:
                            candidates.append((inst, k, later))
    if not candidates:
        return False
    inst, index, later = rng.choice(candidates)
    inst.set_operand(index, later)
    return True


def _corrupt_phi_type(module: Module, rng: random.Random) -> bool:
    phis = [
        inst
        for fn in module.defined_functions()
        for block in fn.blocks
        for inst in block.phis()
        if not isinstance(inst.type, FloatType)
        and any(not isinstance(v, Constant) for v, _ in inst.incoming)
    ]
    if not phis:
        return False
    phi = rng.choice(phis)
    phi.type = FloatType("double")
    phi._touch()  # a bare type write bumps no version: void the clean token
    return True


def inject_into(
    target: str, mode: str = "raise", seed: int = 0
) -> Callable[[str, ModulePass], ModulePass]:
    """Instrument hook for ``HLSAdaptor(instrument=...)`` and
    :func:`repro.diagnostics.replay`: wraps the named pass in a
    :class:`FaultyPass`, leaves every other pass alone."""

    def instrument(name: str, pass_: ModulePass) -> ModulePass:
        if name == target:
            return FaultyPass(pass_, mode=mode, seed=seed)
        return pass_

    return instrument


# -- hostile-IR mutation fuzzing ---------------------------------------------------


def _mut_opaque_flag(module: Module, rng: random.Random) -> bool:
    module.opaque_pointers = True
    return True


def _mut_insert_freeze(module: Module, rng: random.Random) -> bool:
    """Wrap a used instruction result in ``freeze`` (LLVM >= 10: the old
    fork rejects it, so the adaptor must eliminate it or the frontend
    must reject structurally)."""
    candidates = []
    for fn in module.defined_functions():
        for block in fn.blocks:
            for inst in block.instructions:
                if inst.type.is_void or inst.is_terminator or isinstance(inst, Phi):
                    continue
                users = [
                    u for u in inst.users()
                    if isinstance(u, Instruction) and not isinstance(u, Phi)
                ]
                if users:
                    candidates.append((inst, users))
    if not candidates:
        return False
    inst, users = rng.choice(candidates)
    frozen = Freeze(inst, name=f"{inst.name or 'v'}.frz")
    inst.parent.insert_after(inst, frozen)
    user = rng.choice(users)
    for idx, op in enumerate(user.operands):
        if op is inst:
            user.set_operand(idx, frozen)
            break
    return True


def _mut_poison_operand(module: Module, rng: random.Random) -> bool:
    candidates = []
    for fn in module.defined_functions():
        for block in fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, Phi) or inst.is_terminator:
                    continue
                for idx, op in enumerate(inst.operands):
                    if isinstance(op, Constant) and not op.type.is_void:
                        candidates.append((inst, idx, op))
    if not candidates:
        return False
    inst, idx, op = rng.choice(candidates)
    inst.set_operand(idx, PoisonValue(op.type))
    return True


def _mut_unknown_intrinsic(module: Module, rng: random.Random) -> bool:
    from ..ir.types import function_type, i32

    name = "llvm.experimental.repro.hostile.i32"
    if module.get_function(name) is not None:
        return False
    module.declare_function(name, function_type(i32, [i32]))
    return True


def _mut_empty_block(module: Module, rng: random.Random) -> bool:
    defined = module.defined_functions()
    if not defined:
        return False
    rng.choice(defined).add_block("hostile")
    return True


def _mut_phi_retype(module: Module, rng: random.Random) -> bool:
    return _corrupt_phi_type(module, rng)


def _mut_use_before_def(module: Module, rng: random.Random) -> bool:
    return _corrupt_operand(module, rng)


def _mut_drop_loop_metadata(module: Module, rng: random.Random) -> bool:
    """Benign mutation: the module must still adapt cleanly."""
    dropped = False
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if inst.metadata.pop("llvm.loop", None) is not None:
                dropped = True
    return dropped


def _mut_duplicate_symbol(module: Module, rng: random.Random) -> bool:
    defined = module.defined_functions()
    if not defined:
        return False
    module.functions.append(rng.choice(defined))
    return True


def _mut_swap_commutative(module: Module, rng: random.Random) -> bool:
    """Benign mutation: swapping commutative operands must adapt cleanly."""
    from ..ir.instructions import BinaryOperator

    candidates = [
        inst
        for fn in module.defined_functions()
        for inst in fn.instructions()
        if isinstance(inst, BinaryOperator) and inst.is_commutative
    ]
    if not candidates:
        return False
    inst = rng.choice(candidates)
    lhs, rhs = inst.lhs, inst.rhs
    inst.set_operand(0, rhs)
    inst.set_operand(1, lhs)
    return True


def _mut_rename_module(module: Module, rng: random.Random) -> bool:
    """Benign mutation: the module name is free-form."""
    module.name = f"{module.name}.fz{rng.randrange(1000)}"
    return True


_MUTATIONS = [
    ("opaque-flag", _mut_opaque_flag),
    ("insert-freeze", _mut_insert_freeze),
    ("poison-operand", _mut_poison_operand),
    ("unknown-intrinsic", _mut_unknown_intrinsic),
    ("empty-block", _mut_empty_block),
    ("phi-retype", _mut_phi_retype),
    ("use-before-def", _mut_use_before_def),
    ("drop-loop-metadata", _mut_drop_loop_metadata),
    ("duplicate-symbol", _mut_duplicate_symbol),
    ("swap-commutative", _mut_swap_commutative),
    ("rename-module", _mut_rename_module),
]

MUTATION_NAMES = tuple(name for name, _ in _MUTATIONS)


class IRMutationFuzzer:
    """Seeded hostile-IR mutator (deterministic given the seed)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)

    def mutate(self, module: Module, count: int = 2) -> List[str]:
        """Apply up to ``count`` mutations; returns the names applied."""
        applied: List[str] = []
        order = list(_MUTATIONS)
        self.rng.shuffle(order)
        for name, mutate in order:
            if len(applied) >= count:
                break
            if mutate(module, self.rng):
                applied.append(name)
        return applied


def build_seed_module(kernel: str = "gemm", **sizes) -> Module:
    """A realistic fuzz seed: a PolyBench kernel lowered + cleaned, i.e.
    exactly what the adaptor normally ingests."""
    from ..ir.transforms import standard_cleanup_pipeline
    from ..mlir.passes import convert_to_llvm, lowering_pipeline
    from ..workloads import build_kernel

    spec = build_kernel(kernel, **(sizes or {"NI": 4, "NJ": 4, "NK": 4}))
    lowering_pipeline().run(spec.module)
    module = convert_to_llvm(spec.module)
    standard_cleanup_pipeline().run(module)
    return module


def adapt_or_reject(
    module: Module,
    on_error: str = "raise",
    reproducer_dir: Optional[str] = None,
) -> Tuple[str, object]:
    """Run the pipeline invariant check on one (possibly hostile) module.

    The invariant is **reject-or-adapt-and-lint-clean**: returns
    ``("adapted", AdaptorReport)`` when the module came out
    verifier-clean, frontend-accepted *and* free of error-severity
    :mod:`repro.lint` findings, or ``("rejected", error)`` when a
    structured :class:`CompilationError` stopped it on the way in.  An
    accepted module that still carries error-severity lint findings is
    not a rejection — it is an invariant violation, so the
    :class:`repro.diagnostics.LintError` propagates like any other bug.
    """
    from ..adaptor import HLSAdaptor
    from ..diagnostics.errors import LintError
    from ..hls.frontend import HLSFrontend
    from ..ir.verifier import verify_module

    try:
        # lint="report": the frontend stays the arbiter of rejection (its
        # REPRO-FRONTEND/VERIFY codes are what corpus seeds pin); the lint
        # verdict is then enforced separately below.
        report = HLSAdaptor(
            on_error=on_error, reproducer_dir=reproducer_dir, lint="report"
        ).run(module)
        verify_module(module)
        HLSFrontend(strict=True).check(module)
    except CompilationError as exc:
        return ("rejected", exc)
    if report.lint is not None and report.lint.errors:
        raise LintError(
            f"pipeline invariant violated: module {module.name!r} was "
            f"adapted and frontend-accepted but fails the linter at error "
            f"severity [{', '.join(report.lint.codes())}]",
            lint_report=report.lint,
        )
    return ("adapted", report)
