"""Pass manager with per-pass rewrite statistics and crash hardening.

Statistics matter beyond debugging here: the adaptor's headline metric
(Fig. 3 of the reconstructed evaluation) is "rewrites applied per pass per
kernel", collected through the same mechanism.  Stats are recorded into
``history`` as each pass completes, so a mid-pipeline failure keeps the
record of everything that already ran.

The passes run in order.  Without a guard the whole module is verified
once, after the last pass (the ``verify`` span sits under that pass's
span), so a failure is blamed on the last pass.  With a
:class:`repro.diagnostics.PassGuard` the module is verified after every
pass, so a failure is blamed on the pass that caused it, the module is
rolled back to that pass's pre-pass snapshot and a crash reproducer lands
on disk.

Failures are structured: a pass that raises becomes a
:class:`repro.diagnostics.PassExecutionError`, a post-pass verifier
rejection becomes a :class:`repro.diagnostics.PassVerificationError`.

The same loop runs the mini-MLIR lowering:
:class:`repro.mlir.passes.MLIRPassManager` supplies only the structured
MLIR verifier and turns the instruction-churn counters off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...diagnostics.errors import PassExecutionError, PassVerificationError
from ...diagnostics.guard import PassGuard, raise_pass_failure
from ...observability import get_statistics, get_tracer
from ..module import Function, Module

__all__ = [
    "FunctionPass",
    "ModulePass",
    "PassManager",
    "PassStatistics",
    "count_instructions",
]


def count_instructions(module: Module) -> int:
    """Instruction count over every defined function (IR-churn metric)."""
    return sum(
        len(block.instructions)
        for fn in module.defined_functions()
        for block in fn.blocks
    )


@dataclass
class PassStatistics:
    """Aggregated result of one pass over one module."""

    name: str
    rewrites: int = 0
    seconds: float = 0.0
    details: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        self.rewrites += amount
        self.details[key] = self.details.get(key, 0) + amount


class ModulePass:
    """Base class: override :meth:`run_on_module`, report via ``stats``."""

    name = "<module-pass>"

    def run_on_module(self, module: Module, stats: PassStatistics) -> None:
        raise NotImplementedError


class FunctionPass(ModulePass):
    """Base class for per-function passes; skips declarations."""

    name = "<function-pass>"

    def run_on_module(self, module: Module, stats: PassStatistics) -> None:
        for fn in module.defined_functions():
            self.run_on_function(fn, stats)

    def run_on_function(self, fn: Function, stats: PassStatistics) -> None:
        raise NotImplementedError


class PassManager:
    level = "IR"  # names the verifier in failure messages
    count_churn = True  # record instruction churn (``instructions-*``)

    def __init__(self, guard: Optional[PassGuard] = None):
        self.passes: List[ModulePass] = []
        self.guard = guard
        self.history: List[PassStatistics] = []

    def add(self, pass_: ModulePass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def verify(self, module: Module) -> None:
        from ..verifier import verify_module

        verify_module(module)

    def run(self, module: Module) -> List[PassStatistics]:
        tracer = get_tracer()
        registry = get_statistics()
        churn = registry.enabled and self.count_churn
        names = [p.name for p in self.passes]
        run_stats: List[PassStatistics] = []
        if churn and self.passes:
            registry.bump("module", "instructions-before", count_instructions(module))
        for i, pass_ in enumerate(self.passes):
            tail = names[i:]
            snapshot = self.guard.snapshot(module) if self.guard is not None else None
            stats = PassStatistics(pass_.name)
            before = count_instructions(module) if churn else 0
            with tracer.span(pass_.name, category="pass") as span:
                start = time.perf_counter()
                try:
                    pass_.run_on_module(module, stats)
                except Exception as exc:
                    stats.seconds = time.perf_counter() - start
                    raise_pass_failure(
                        PassExecutionError,
                        self.guard,
                        module,
                        snapshot,
                        tail,
                        f"pass {pass_.name!r} raised "
                        f"{type(exc).__name__}: {exc}",
                        exc,
                    )
                stats.seconds = time.perf_counter() - start
                span.set(rewrites=stats.rewrites, **stats.details)
                # Record as the pass completes: a later failure must not lose
                # the stats of passes that already ran.
                run_stats.append(stats)
                self.history.append(stats)
                if registry.enabled:
                    self._record_counters(registry, pass_.name, stats, before, module)
                if self.guard is None and i < len(self.passes) - 1:
                    continue
                with tracer.span("verify", category="verify"):
                    try:
                        self.verify(module)
                    except Exception as exc:
                        raise_pass_failure(
                            PassVerificationError,
                            self.guard,
                            module,
                            snapshot,
                            tail,
                            f"{self.level} verification failed after pass "
                            f"{pass_.name!r}: {exc}",
                            exc,
                        )
        return run_stats

    def _record_counters(self, registry, name: str, stats: PassStatistics,
                         before: int, module: Module) -> None:
        """Fold one pass's rewrite details into the ambient registry.

        Only actual work is recorded — a no-op pass leaves no counters —
        plus module-level instruction churn so deletions are assertable.
        """
        registry.record_details(name, stats.details)
        registry.bump(name, "rewrites", stats.rewrites)
        if not self.count_churn:
            return
        after = count_instructions(module)
        if after < before:
            registry.bump(name, "instructions-deleted", before - after)
            registry.bump("module", "instructions-deleted", before - after)
        elif after > before:
            registry.bump(name, "instructions-created", after - before)

    def total_rewrites(self) -> int:
        return sum(s.rewrites for s in self.history)
