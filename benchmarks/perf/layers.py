"""The traced request path: one public call per layer, one span per call.

:class:`TracedService` is a :class:`repro.service.CompilationService`
whose ``compile_one`` walks the same steps as the service's
``compile_one`` → ``compare_flows`` → ``run_adaptor_flow`` /
``run_cpp_flow`` → ``verify_flow_equivalence`` chain, but calls each
layer's public function itself with a benchmark-owned span around it.
Everything that calls ``compile_one`` on a service — ``compile_batch``,
the DSE explorer, the compile daemon — therefore runs traced when handed
a :class:`TracedService`, and the rows it returns must be bit-identical
to the untraced path's (the workloads check that).

While its recorder is inactive the service is the plain one.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.adaptor import HLSAdaptor
from repro.backends import create_backend, resolve_backend_id
from repro.diagnostics.errors import LintError
from repro.flows import FlowComparison
from repro.flows.adaptor_flow import AdaptorFlowResult
from repro.flows.compare import retention_metrics
from repro.flows.cpp_flow import CppFlowResult
from repro.hlscpp import compile_hls_cpp, generate_hls_cpp
from repro.ir.interpreter import run_kernel
from repro.ir.transforms import standard_cleanup_pipeline
from repro.lint import run_lint
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.observability import StatisticsRegistry, get_statistics, use_statistics
from repro.service import CompilationService, cache_key, resolve_config
from repro.workloads.polybench import build_kernel
from repro.workloads.suite import SUITE_SIZES

from .spans import SpanRecorder

__all__ = ["TracedService", "WRAPPER_SPAN"]

#: The per-request wrapper span; its self time is the part of a request
#: no layer span explains.
WRAPPER_SPAN = "service.compile_one"


def _instruction_count(module) -> int:
    return sum(
        len(b.instructions) for f in module.defined_functions() for b in f.blocks
    )


class TracedService(CompilationService):
    """The service, with ``compile_one`` traced while the recorder is active."""

    def __init__(self, recorder: SpanRecorder, **kwargs):
        super().__init__(**kwargs)
        self.recorder = recorder

    def compile_one(
        self,
        kernel,
        config="baseline",
        sizes=None,
        size_class="SMALL",
        check_equivalence=True,
        seed=17,
        backend=None,
    ):
        if not self.recorder.active:
            return super().compile_one(
                kernel, config, sizes=sizes, size_class=size_class,
                check_equivalence=check_equivalence, seed=seed, backend=backend,
            )
        rec = self.recorder
        with rec.span(WRAPPER_SPAN, new_request=True):
            start = time.perf_counter()
            config_obj = resolve_config(config)
            sizes = sizes if sizes is not None else SUITE_SIZES[size_class][kernel]
            backend_id = resolve_backend_id(backend or self.backend)
            rec.label(f"{kernel}/{config_obj.name}/{backend_id}")
            with rec.span("service.cache_key"):
                key = cache_key(
                    kernel, sizes, config_obj, device=self.device,
                    check_equivalence=check_equivalence, seed=seed,
                    backend=backend_id,
                )
            in_memory = key in getattr(self.cache, "mem", ())
            with rec.span("service.cache_miss") as load_span:
                lookup_start = time.perf_counter()
                cached = self.cache.load(key)
                lookup_elapsed = time.perf_counter() - lookup_start
            if cached is not None:
                rec.rename(
                    load_span,
                    "service.tiers.mem_load" if in_memory else "service.disk_load",
                )
                cached.cache_status = "hit"
                cached.lookup_seconds = lookup_elapsed
                return cached
            get_statistics().bump("service", "compiles")
            comparison = self._compare(
                kernel, sizes, config_obj, check_equivalence, seed, backend_id
            )
            comparison.cache_status = "miss"
            comparison.lookup_seconds = lookup_elapsed
            with rec.span("service.cache_store"):
                self.cache.store(
                    key, comparison, meta={"kernel": kernel, "config": config_obj.name}
                )
            rec.record("service.entry_bytes", os.path.getsize(self.cache.entry_path(key)))
            rec.record(
                "service.overhead_ms",
                (time.perf_counter() - start - comparison.compile_seconds) * 1e3,
            )
        return comparison

    # -- repro.flows.compare_flows, one layer at a time ------------------------
    def _compare(self, kernel, sizes, config, check_equivalence, seed, backend_id):
        span = self.recorder.span
        start = time.perf_counter()
        with span("workloads.build"):
            spec_a = build_kernel(kernel, **sizes)
            config.apply(spec_a)
        adaptor = self._adaptor_flow(spec_a, backend_id)
        with span("workloads.build"):
            spec_c = build_kernel(kernel, **sizes)
            config.apply(spec_c)
        cpp = self._cpp_flow(spec_c, backend_id)
        with span("flows.retention"):
            comparison = FlowComparison(
                kernel=kernel,
                config=config.name,
                adaptor=adaptor,
                cpp=cpp,
                backend=backend_id,
                adaptor_metrics=retention_metrics(
                    adaptor.ir_module, adaptor.raw_instruction_count
                ),
                cpp_metrics=retention_metrics(cpp.ir_module, cpp.raw_instruction_count),
            )
        if adaptor.lint_report is not None:
            comparison.lint = adaptor.lint_report.to_dict()
        if check_equivalence:
            with span("workloads.build"):
                spec_o = build_kernel(kernel, **sizes)
            ok, err = self._equivalence(spec_o, adaptor.ir_module, cpp.ir_module, seed)
            comparison.functionally_equivalent = ok
            comparison.max_abs_error = err
        comparison.compile_seconds = time.perf_counter() - start
        return comparison

    def _synthesize(self, module, backend_id):
        with self.recorder.span(f"backends.{backend_id}.synth"):
            engine = create_backend(backend_id, device=self.device, strict_frontend=True)
            return engine.synthesize(module)

    def _adaptor_flow(self, spec, backend_id) -> AdaptorFlowResult:
        rec = self.recorder
        timings = {}
        start = time.perf_counter()
        with rec.span("mlir.lower"):
            lowering_pipeline().run(spec.module)
        with rec.span("mlir.to_llvm"):
            module = convert_to_llvm(spec.module)
        timings["lower"] = time.perf_counter() - start
        with rec.span("flows.retention"):
            raw_count = _instruction_count(module)
        rec.record("mlir.llvm_insts", raw_count)
        start = time.perf_counter()
        with rec.span("ir.cleanup"):
            standard_cleanup_pipeline().run(module)
        timings["cleanup"] = time.perf_counter() - start
        with rec.span("flows.retention"):
            rec.record("ir.insts_after_cleanup", _instruction_count(module))
        start = time.perf_counter()
        with rec.span("adaptor.run"):
            report = HLSAdaptor(lint="off", lint_backend=backend_id).run(module)
        with rec.span("lint.run"):
            report.lint = run_lint(module, backend=backend_id)
        # The adaptor's lint gate: a clean full-pipeline run must not
        # carry error-severity findings.
        if report.lint.errors:
            raise LintError(
                f"adapted module {module.name!r} failed the lint gate "
                f"[{', '.join(report.lint.codes())}]",
                lint_report=report.lint,
            )
        timings["adaptor"] = time.perf_counter() - start
        start = time.perf_counter()
        synth = self._synthesize(module, backend_id)
        timings["synthesis"] = time.perf_counter() - start
        return AdaptorFlowResult(
            kernel=spec.name,
            ir_module=module,
            adaptor_report=report,
            synth_report=synth,
            timings=timings,
            raw_instruction_count=raw_count,
        )

    def _cpp_flow(self, spec, backend_id) -> CppFlowResult:
        rec = self.recorder
        timings = {}
        start = time.perf_counter()
        with rec.span("hlscpp.codegen"):
            source = generate_hls_cpp(spec.module)
        timings["codegen"] = time.perf_counter() - start
        rec.record("hlscpp.source_bytes", len(source.encode("utf-8")))
        start = time.perf_counter()
        with rec.span("hlscpp.frontend"):
            module = compile_hls_cpp(source)
        timings["c-frontend"] = time.perf_counter() - start
        with rec.span("flows.retention"):
            raw_count = _instruction_count(module)
        start = time.perf_counter()
        with rec.span("ir.cleanup"):
            standard_cleanup_pipeline().run(module)
        timings["cleanup"] = time.perf_counter() - start
        start = time.perf_counter()
        synth = self._synthesize(module, backend_id)
        timings["synthesis"] = time.perf_counter() - start
        return CppFlowResult(
            kernel=spec.name,
            cpp_source=source,
            ir_module=module,
            synth_report=synth,
            timings=timings,
            raw_instruction_count=raw_count,
        )

    # -- repro.flows.verify_flow_equivalence ---------------------------------
    def _equivalence(self, spec, adaptor_module, cpp_module, seed, rtol=1e-4, atol=1e-5):
        rec = self.recorder
        with rec.span("oracle"):
            arrays = spec.make_inputs(seed)
            oracle = spec.reference(
                **{k: v.copy() for k, v in arrays.items()}, **spec.scalar_args
            )
        registry = StatisticsRegistry()
        with rec.span("interp.run"), use_statistics(registry):
            got_adaptor = run_kernel(
                adaptor_module, spec.name,
                {k: v.copy() for k, v in arrays.items()}, spec.scalar_args,
            )
            got_cpp = run_kernel(
                cpp_module, spec.name,
                {k: v.copy() for k, v in arrays.items()}, spec.scalar_args,
            )
        rec.record("interp.steps", registry.get("interpreter", "steps"))
        with rec.span("oracle"):
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
