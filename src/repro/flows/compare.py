"""Flow-vs-flow comparison: functional equivalence, latency/area diffs,
and the expression-detail retention metrics (reconstructed Fig. 2)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..backends import resolve_backend_id
from ..ir import Module
from ..ir.instructions import Cast, GetElementPtr, Load, Store
from ..ir.interpreter import run_kernel
from ..observability import get_tracer
from ..workloads.polybench import KernelSpec, build_kernel
from .adaptor_flow import AdaptorFlowResult, run_adaptor_flow
from .config import OptimizationConfig
from .cpp_flow import CppFlowResult, run_cpp_flow

__all__ = [
    "RetentionMetrics",
    "FlowComparison",
    "retention_metrics",
    "compare_flows",
    "verify_flow_equivalence",
]


@dataclass
class RetentionMetrics:
    """How much IR-level expression detail each flow's final module carries.

    * ``structured_accesses`` / ``linear_accesses`` — memory accesses using
      multi-dimensional array subscripts vs flattened linear indices (the
      HLS memory analysis prefers the former);
    * ``index_widening_casts`` — ``sext``/``zext`` noise from regenerated
      32-bit induction variables (zero when the original 64-bit MLIR index
      math survives);
    * ``directives`` — loop directive attachments in the HLS spelling;
    * ``instructions`` — final instruction count;
    * ``raw_instructions`` — frontend-output instruction count (before
      cleanup), measuring how much regeneration the flow does.
    """

    flow: str
    structured_accesses: int = 0
    linear_accesses: int = 0
    index_widening_casts: int = 0
    directives: int = 0
    instructions: int = 0
    raw_instructions: int = 0

    @property
    def structured_fraction(self) -> float:
        total = self.structured_accesses + self.linear_accesses
        return self.structured_accesses / total if total else 1.0


def retention_metrics(module: Module, raw_instructions: int = 0) -> RetentionMetrics:
    metrics = RetentionMetrics(flow=module.source_flow or "unknown")
    metrics.raw_instructions = raw_instructions
    for fn in module.defined_functions():
        for block in fn.blocks:
            for inst in block.instructions:
                metrics.instructions += 1
                if isinstance(inst, (Load, Store)):
                    pointer = inst.pointer
                    if isinstance(pointer, GetElementPtr):
                        if len(pointer.indices) >= 2:
                            metrics.structured_accesses += 1
                        else:
                            metrics.linear_accesses += 1
                if isinstance(inst, Cast) and inst.opcode in ("sext", "zext"):
                    metrics.index_widening_casts += 1
                if "llvm.loop" in inst.metadata:
                    metrics.directives += 1
    return metrics


@dataclass
class FlowComparison:
    """Both flows' results for one kernel under one config.

    From :func:`compare_flows` the two flow results hold their final IR
    modules.  Rows from :mod:`repro.service` (compiled or cached, local or
    through the daemon) hold ``None`` there: a row carries results
    (latency, resources, equivalence verdict, lint, retention metrics),
    not IR.  Retention metrics and the equivalence check are computed
    from the modules before they are dropped.
    """

    kernel: str
    config: str
    adaptor: AdaptorFlowResult
    cpp: CppFlowResult
    adaptor_metrics: RetentionMetrics = None  # type: ignore[assignment]
    cpp_metrics: RetentionMetrics = None  # type: ignore[assignment]
    functionally_equivalent: Optional[bool] = None
    max_abs_error: float = 0.0
    # Provenance, stamped by repro.service: how this row was obtained
    # ("computed" directly, cache "hit", cache "miss" then computed).
    # ``compile_seconds`` is always the cost of the compile that *produced*
    # this comparison — for a cache hit that is the original compile's
    # time, while the (much smaller) cost of the lookup that served it
    # lands in ``lookup_seconds``.  Keeping the two separate is what lets
    # the speedup texts report honest numbers for warm rows.
    cache_status: str = "computed"
    compile_seconds: float = 0.0
    lookup_seconds: float = 0.0
    # Serialized observability span tree (Span.to_dict) of the compile
    # that produced this row, when it ran under an enabled tracer.  Rides
    # through the cache, so a hit still explains where its time went.
    trace: Optional[Dict[str, Any]] = None
    # HLS-compatibility lint verdict of the adapted module
    # (LintReport.to_dict()); rides through the cache with the row.
    lint: Optional[Dict[str, Any]] = None
    # Which synthesis backend produced both flows' numbers
    # (repro.backends registry id).
    backend: str = "static"

    @property
    def lint_clean(self) -> Optional[bool]:
        """True/False once linted, None when the verdict is unavailable."""
        if self.lint is None:
            return None
        return bool(self.lint.get("clean"))

    @property
    def latency_ratio(self) -> float:
        """adaptor latency / cpp latency (1.0 = identical; the paper's
        'comparable' claim is this staying near 1)."""
        cpp_lat = max(self.cpp.latency, 1)
        return self.adaptor.latency / cpp_lat

    def row(self) -> str:
        if self.functionally_equivalent is None:
            verdict = "n/a"  # equivalence check skipped, not a mismatch
        elif self.functionally_equivalent:
            verdict = "OK"
        else:
            verdict = "MISMATCH"
        if self.lint_clean is None:
            lint = "n/a"
        elif self.lint_clean:
            lint = "clean"
        else:
            lint = ",".join(self.lint.get("codes", [])) or "DIRTY"
        return (
            f"{self.kernel:<12} {self.config:<10} "
            f"{self.adaptor.latency:>10} {self.cpp.latency:>10} "
            f"{self.latency_ratio:>7.3f}  "
            f"{verdict:<8} {lint}"
        )


def verify_flow_equivalence(
    spec: KernelSpec,
    adaptor_module: Module,
    cpp_module: Module,
    seed: int = 0,
    rtol: float = 1e-4,
    atol: float = 1e-5,
) -> tuple:
    """Run both final IR modules and the NumPy oracle on identical inputs.

    Returns ``(equivalent, max_abs_error)``.
    """
    arrays = spec.make_inputs(seed)
    oracle = spec.reference(
        **{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args
    )
    got_adaptor = run_kernel(adaptor_module, spec.name, {k: v.copy() for k, v in arrays.items()}, spec.scalar_args)
    got_cpp = run_kernel(cpp_module, spec.name, {k: v.copy() for k, v in arrays.items()}, spec.scalar_args)
    worst = 0.0
    ok = True
    for out in spec.outputs:
        for got in (got_adaptor[out], got_cpp[out]):
            err = float(np.max(np.abs(got - oracle[out]))) if got.size else 0.0
            worst = max(worst, err)
            if not np.allclose(got, oracle[out], rtol=rtol, atol=atol):
                ok = False
        if not np.allclose(got_adaptor[out], got_cpp[out], rtol=rtol, atol=atol):
            ok = False
    return ok, worst


def compare_flows(
    kernel_name: str,
    sizes: Dict[str, int],
    config: Optional[OptimizationConfig] = None,
    device: str = "xc7z020",
    check_equivalence: bool = True,
    seed: int = 0,
    on_error: str = "raise",
    reproducer_dir: Optional[str] = None,
    lint: str = "gate",
    backend: Optional[str] = None,
) -> FlowComparison:
    """Build the kernel twice (each flow consumes its module), run both
    flows under the same optimisation config, and compare.

    ``backend`` selects the synthesis engine (a ``repro.backends`` id;
    both flows use the same one, so the latency ratio stays a same-engine
    comparison).  ``on_error="recover"`` lets the adaptor flow degrade
    gracefully (non-essential pass failures are disabled and recorded)
    instead of aborting the whole comparison."""
    start = time.perf_counter()
    config = config or OptimizationConfig.baseline()
    backend_id = resolve_backend_id(backend)
    tracer = get_tracer()

    with tracer.span(
        f"compare:{kernel_name}",
        category="compare",
        kernel=kernel_name,
        config=config.name,
        backend=backend_id,
    ) as root:
        spec_a = build_kernel(kernel_name, **sizes)
        config.apply(spec_a)
        adaptor_result = run_adaptor_flow(
            spec_a,
            device=device,
            on_error=on_error,
            reproducer_dir=reproducer_dir,
            lint=lint,
            backend=backend_id,
        )

        spec_c = build_kernel(kernel_name, **sizes)
        config.apply(spec_c)
        cpp_result = run_cpp_flow(spec_c, device=device, backend=backend_id)

        comparison = FlowComparison(
            kernel=kernel_name,
            config=config.name,
            adaptor=adaptor_result,
            cpp=cpp_result,
            backend=backend_id,
            adaptor_metrics=retention_metrics(
                adaptor_result.ir_module, adaptor_result.raw_instruction_count
            ),
            cpp_metrics=retention_metrics(
                cpp_result.ir_module, cpp_result.raw_instruction_count
            ),
        )
        if adaptor_result.lint_report is not None:
            comparison.lint = adaptor_result.lint_report.to_dict()
        if check_equivalence:
            with tracer.span("equivalence", category="stage", flow="compare"):
                # Fresh spec for the oracle (previous two were consumed by
                # lowering).
                spec_o = build_kernel(kernel_name, **sizes)
                ok, err = verify_flow_equivalence(
                    spec_o, adaptor_result.ir_module, cpp_result.ir_module,
                    seed=seed,
                )
            comparison.functionally_equivalent = ok
            comparison.max_abs_error = err
        comparison.compile_seconds = time.perf_counter() - start
    if tracer.enabled:
        comparison.trace = root.to_dict()
    return comparison
