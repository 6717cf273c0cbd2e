"""Replay a crash reproducer: rerun the recorded pipeline on the recorded
pre-pass IR and check whether the same diagnostic comes back.

Workflow::

    from repro.diagnostics import replay

    result = replay("/tmp/repro-crashes/ir-attr-scrub-ab12cd34ef56.repro.json")
    if result.reproduced:
        ...            # failure still present: same code, same pass
    else:
        ...            # pipeline now runs clean: the bug is fixed

``instrument`` mirrors :class:`repro.adaptor.HLSAdaptor`'s hook so faults
injected through :mod:`repro.testing.fault_injection` replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .engine import Diagnostic
from .errors import CompilationError, ReplayError
from .reproducer import CrashReproducer

__all__ = ["ReplayResult", "replay", "ir_pass_registry", "mlir_pass_registry"]


@dataclass
class ReplayResult:
    """Outcome of rerunning one crash reproducer."""

    reproduced: bool
    expected: Diagnostic
    error: Optional[CompilationError] = None
    module: object = None
    pipeline: List[str] = field(default_factory=list)

    @property
    def diagnostic(self) -> Optional[Diagnostic]:
        return self.error.diagnostic if self.error is not None else None


def ir_pass_registry() -> Dict[str, Callable]:
    """Name -> zero-arg factory for every replayable IR-level pass."""
    from ..adaptor.pipeline import PASS_FACTORY
    from ..ir.transforms import (
        CommonSubexpressionElimination,
        DeadCodeElimination,
        InstCombine,
        Mem2Reg,
        SimplifyCFG,
        SparseConditionalConstantPropagation,
    )

    registry: Dict[str, Callable] = {
        "mem2reg": Mem2Reg,
        "sccp": SparseConditionalConstantPropagation,
        "instcombine": InstCombine,
        "cse": CommonSubexpressionElimination,
        "dce": DeadCodeElimination,
        "simplifycfg": SimplifyCFG,
    }
    registry.update(PASS_FACTORY)
    return registry


def mlir_pass_registry() -> Dict[str, Callable]:
    from ..mlir.passes import AffineToSCF, Canonicalize, SCFToCF

    return {
        "canonicalize": Canonicalize,
        "affine-to-scf": AffineToSCF,
        "scf-to-cf": SCFToCF,
    }


def _build_passes(
    names: List[str],
    registry: Dict[str, Callable],
    instrument: Optional[Callable],
) -> List[object]:
    passes = []
    for name in names:
        factory = registry.get(name)
        if factory is None:
            raise ReplayError(
                f"reproducer names unknown pass {name!r}; "
                f"known: {sorted(registry)}"
            )
        pass_ = factory()
        if instrument is not None:
            pass_ = instrument(name, pass_)
        passes.append(pass_)
    return passes


def _restore_function_info(module, function_info: Dict[str, dict]) -> None:
    from ..ir.parser import _Parser

    for fn in module.functions:
        info = function_info.get(fn.name)
        if not info:
            continue
        fn.attributes.update(info.get("attributes", ()))
        fn.hls_partitions = dict(info.get("hls_partitions", {}))
        memref_args = {}
        for arg, data in info.get("hls_memref_args", {}).items():
            data = dict(data)
            if isinstance(data.get("shape"), list):
                data["shape"] = tuple(data["shape"])
            memref_args[arg] = data
        fn.hls_memref_args = memref_args
        fn.hls_buffer_types = {
            arg: _Parser(text).parse_type()
            for arg, text in info.get("hls_buffer_types", {}).items()
        }


def replay(
    path: str, instrument: Optional[Callable] = None
) -> ReplayResult:
    """Load ``path``, rerun its pipeline, and report what happened.

    ``reproduced`` is True when the rerun raised a
    :class:`CompilationError` with the same code and pass attribution as
    the recorded diagnostic.
    """
    reproducer = CrashReproducer.load(path)
    if reproducer.kind == "ir":
        return _replay_ir(reproducer, instrument)
    if reproducer.kind == "mlir":
        return _replay_mlir(reproducer, instrument)
    raise ReplayError(f"unknown reproducer kind {reproducer.kind!r}")


def _matches(error: CompilationError, expected: Diagnostic) -> bool:
    if error.code != expected.code:
        return False
    got_pass = getattr(error, "pass_name", None)
    return expected.pass_name is None or got_pass == expected.pass_name


def _rerun(
    reproducer: CrashReproducer, module, manager_cls, passes: List[object]
) -> ReplayResult:
    """Run ``passes`` over ``module``, each in its own ``manager_cls``.

    A one-pass manager verifies right after its pass, as the guarded run
    that wrote the reproducer did; one manager over the whole tail would
    verify only at the end, after later passes may have rebuilt the IR.
    """
    error = None
    try:
        for pass_ in passes:
            manager_cls().add(pass_).run(module)
    except CompilationError as exc:
        error = exc
    return ReplayResult(
        reproduced=error is not None and _matches(error, reproducer.diagnostic),
        expected=reproducer.diagnostic,
        error=error,
        module=module,
        pipeline=list(reproducer.pipeline),
    )


def _replay_ir(
    reproducer: CrashReproducer, instrument: Optional[Callable]
) -> ReplayResult:
    from ..ir.parser import parse_module
    from ..ir.transforms.pass_manager import PassManager

    module = parse_module(reproducer.module_text)
    _restore_function_info(module, reproducer.function_info)
    passes = _build_passes(reproducer.pipeline, ir_pass_registry(), instrument)
    return _rerun(reproducer, module, PassManager, passes)


def _replay_mlir(
    reproducer: CrashReproducer, instrument: Optional[Callable]
) -> ReplayResult:
    from ..mlir.parser import parse_mlir_module
    from ..mlir.passes.pass_manager import MLIRPassManager

    module = parse_mlir_module(reproducer.module_text)
    passes = _build_passes(reproducer.pipeline, mlir_pass_registry(), instrument)
    return _rerun(reproducer, module, MLIRPassManager, passes)
