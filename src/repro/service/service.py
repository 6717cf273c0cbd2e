"""The batch compilation service.

One :class:`CompilationService` owns a :class:`CompilationCache` and runs
flow comparisons through it:

* :meth:`CompilationService.compile_one` — one kernel/config pair,
  cache-first;
* :meth:`CompilationService.compile_batch` — an arbitrary list of
  :class:`CompileRequest` (kernels × configs, e.g. a design-space sweep),
  fanned out over worker processes (``jobs > 1``) that all share the same
  on-disk cache, so a batch run both *uses* and *populates* the cache
  other runs (and other processes — pytest, the CLI, the benchmark
  harness) see;
* :meth:`CompilationService.run_suite` — the benchmark suite as a batch:
  one config across every (or the named) suite kernel.

Results are :class:`repro.flows.FlowComparison` objects stamped with
cache provenance (``cache_status`` ``"hit"``/``"miss"``) and stripped of
the flows' final IR modules: a row carries results (latency, resources,
equivalence, lint, retention metrics), not IR, so the cache, the daemon
wire and worker returns move a few kB per row.  Callers that need the
modules run :func:`repro.flows.compare_flows` directly.  Every suite run
returns a :class:`SuiteReport` carrying wall-clock, per-kernel and cache
hit/miss statistics for the flow report.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..backends import resolve_backend_id
from ..diagnostics.engine import DiagnosticEngine
from ..diagnostics.errors import PipelineConfigError
from ..flows.compare import FlowComparison, compare_flows
from ..flows.config import OptimizationConfig
from ..observability import (
    StatisticsRegistry,
    Tracer,
    get_statistics,
    get_tracer,
    use_statistics,
    use_tracer,
)
from ..workloads.suite import SUITE_SIZES
from .cache import CacheStats, CompilationCache
from .fingerprint import cache_key
from .tiers import TieredCompilationCache
from .resilience import (
    FailurePolicy,
    RequestOutcome,
    ResilientExecutor,
    outcome_counts,
)

__all__ = [
    "NAMED_CONFIGS",
    "resolve_config",
    "CompileRequest",
    "SuiteReport",
    "CompilationService",
]

#: The named optimisation recipes the evaluation uses.  The benchmark
#: harness and the CLI both resolve configs through this registry.
NAMED_CONFIGS: Dict[str, Callable[[], OptimizationConfig]] = {
    "baseline": OptimizationConfig.baseline,
    "optimized": lambda: OptimizationConfig.optimized(ii=1),
    "optimized_part": lambda: OptimizationConfig.optimized(ii=1, partition_factor=2),
}


def resolve_config(config: Union[str, OptimizationConfig]) -> OptimizationConfig:
    """A fresh config object from a registry name (or pass one through)."""
    if isinstance(config, OptimizationConfig):
        return config
    try:
        factory = NAMED_CONFIGS[config]
    except KeyError:
        raise PipelineConfigError(
            f"unknown optimisation config {config!r}; "
            f"valid: {sorted(NAMED_CONFIGS)}"
        ) from None
    return factory()


@dataclass
class CompileRequest:
    """One unit of batch work: a kernel under a config at a size.

    ``sizes`` wins over ``size_class`` when given, mirroring
    :meth:`CompilationService.compile_one`.  Requests are plain data so a
    design-space sweep can enumerate thousands of them before any
    compilation starts.
    """

    kernel: str
    config: Union[str, OptimizationConfig] = "baseline"
    sizes: Optional[Dict[str, int]] = None
    size_class: str = "SMALL"
    check_equivalence: bool = True
    seed: int = 17
    # Synthesis backend id (repro.backends); None = the service's default.
    backend: Optional[str] = None

    def resolve(self) -> "CompileRequest":
        """A copy with ``config``/``sizes`` resolved to concrete objects."""
        return CompileRequest(
            kernel=self.kernel,
            config=resolve_config(self.config),
            sizes=(
                dict(self.sizes)
                if self.sizes is not None
                else _sizes_for(self.size_class, self.kernel)
            ),
            size_class=self.size_class,
            check_equivalence=self.check_equivalence,
            seed=self.seed,
            backend=self.backend,
        )


@dataclass
class SuiteReport:
    """One batch run: the comparisons plus how they were obtained.

    ``comparisons`` holds the *successful* rows in request order;
    ``outcomes`` always has one :class:`RequestOutcome` per request, so
    a batch run under a ``continue``/``retry`` policy returns partial
    results instead of raising completed work away.  When every request
    succeeds (the only thing the historical fail-fast path could
    return), ``comparisons`` and ``outcomes`` line up one-to-one.
    """

    config: str
    size_class: str
    jobs: int
    comparisons: List[FlowComparison] = field(default_factory=list)
    seconds: float = 0.0  # wall clock for the whole batch
    # Counted from this batch's own rows (see _row_cache_stats), never
    # from the shared cache handle, so concurrent batches cannot leak
    # into each other's numbers.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    cache_root: str = ""
    # One record per request: ok / retried-then-ok / failed / timed-out.
    outcomes: List[RequestOutcome] = field(default_factory=list)
    # FailurePolicy.describe() of the policy that governed the batch.
    policy: str = "fail-fast"
    # True when the circuit breaker degraded the batch to serial execution.
    degraded: bool = False
    # Serialized suite-level span tree (run-suite → compile → cache/flow
    # spans), set when the run happened under an enabled tracer.
    trace: Optional[Dict[str, Any]] = None

    @property
    def kernels(self) -> List[str]:
        return [c.kernel for c in self.comparisons]

    @property
    def ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failures(self) -> List[RequestOutcome]:
        """Outcomes that produced no comparison (failed or timed out)."""
        return [o for o in self.outcomes if not o.ok]

    def outcome_counts(self) -> Dict[str, int]:
        return outcome_counts(self.outcomes)

    def comparison_for(self, outcome: RequestOutcome) -> Optional[FlowComparison]:
        """The comparison ``outcome`` produced, or ``None`` if it failed."""
        if outcome.comparison_index is None:
            return None
        return self.comparisons[outcome.comparison_index]

    @property
    def compile_seconds(self) -> float:
        """Total compile time spent on misses (warm runs approach zero)."""
        return sum(
            c.compile_seconds for c in self.comparisons if c.cache_status != "hit"
        )

    @property
    def saved_seconds(self) -> float:
        """Original compile time of the rows the cache served.

        Hit rows keep the compile time of the run that *produced* them, so
        this is the work the cache saved — distinct from
        :attr:`lookup_seconds`, the (tiny) cost of serving those rows.
        """
        return sum(
            c.compile_seconds for c in self.comparisons if c.cache_status == "hit"
        )

    @property
    def lookup_seconds(self) -> float:
        return sum(c.lookup_seconds for c in self.comparisons)

    @property
    def lint_dirty(self) -> List[FlowComparison]:
        """Rows whose adapted module has lint findings (any severity)."""
        return [c for c in self.comparisons if c.lint_clean is False]

    @property
    def lint_clean(self) -> Optional[bool]:
        """Suite-level lint verdict: None when no row carries one."""
        linted = [c for c in self.comparisons if c.lint_clean is not None]
        if not linted:
            return None
        return all(c.lint_clean for c in linted)

    def summary(self) -> str:
        lines = [
            f"suite run: config={self.config} size={self.size_class} "
            f"jobs={self.jobs} wall={self.seconds:.2f}s"
            + (" [DEGRADED to serial]" if self.degraded else ""),
            f"cache [{self.cache_root}]: {self.cache_stats.summary()}",
            f"compiled {self.compile_seconds:.3f}s; cache saved "
            f"{self.saved_seconds:.3f}s of original compile time "
            f"({self.lookup_seconds * 1e3:.1f} ms spent on lookups)",
            "",
            f"{'kernel':<12} {'cache':<6} {'compile s':>10} {'lookup ms':>10} "
            f"{'lat(adp)':>10} {'lat(cpp)':>10} {'ratio':>7}  "
            f"{'verdict':<8} lint",
        ]
        for c in self.comparisons:
            if c.functionally_equivalent is None:
                verdict = "n/a"
            elif c.functionally_equivalent:
                verdict = "OK"
            else:
                verdict = "MISMATCH"
            if c.lint_clean is None:
                lint = "n/a"
            elif c.lint_clean:
                lint = "clean"
            else:
                lint = ",".join(c.lint.get("codes", [])) or "DIRTY"
            lines.append(
                f"{c.kernel:<12} {c.cache_status:<6} {c.compile_seconds:>10.3f} "
                f"{c.lookup_seconds * 1e3:>10.2f} "
                f"{c.adaptor.latency:>10} {c.cpp.latency:>10} "
                f"{c.latency_ratio:>7.3f}  {verdict:<8} {lint}"
            )
        if self.lint_clean is not None:
            dirty = self.lint_dirty
            lines.append(
                "lint: all modules clean"
                if not dirty
                else f"lint: {len(dirty)} module(s) with findings: "
                f"{', '.join(c.kernel for c in dirty)}"
            )
        if self.outcomes and (self.failures or self.policy != "fail-fast"):
            counts = self.outcome_counts()
            lines.append(
                f"outcomes [{self.policy}]: "
                + ", ".join(f"{n} {status}" for status, n in counts.items() if n)
            )
            for outcome in self.failures:
                code = f"[{outcome.error_code}] " if outcome.error_code else ""
                lines.append(
                    f"  {outcome.status.upper()} {outcome.kernel} "
                    f"(attempt {outcome.attempts}): {code}{outcome.error}"
                )
        return "\n".join(lines)


def _sizes_for(size_class: str, kernel: str) -> Dict[str, int]:
    try:
        by_kernel = SUITE_SIZES[size_class]
    except KeyError:
        raise PipelineConfigError(
            f"unknown size class {size_class!r}; have {sorted(SUITE_SIZES)}"
        ) from None
    try:
        return by_kernel[kernel]
    except KeyError:
        raise PipelineConfigError(
            f"unknown kernel {kernel!r} for size class {size_class!r}; "
            f"have {sorted(by_kernel)}"
        ) from None


def _compile_job(payload: dict, attempt: int):
    """Worker entry point: compile one kernel through a private service
    handle onto the *shared* on-disk cache.

    Returns ``(comparison, stats, counters)``; structured compilation
    errors pickle fine and re-raise in the parent.  Must stay module-level
    so it is importable under every multiprocessing start method.

    Ambient observability does not cross process boundaries, so the parent
    ships ``trace``/``stats`` opt-ins in the payload; the worker then runs
    under its own tracer/registry and returns the comparison (with its
    serialized span tree attached) plus the counter dump for the parent to
    merge.
    """
    service = CompilationService(
        cache_dir=payload["cache_dir"],
        jobs=1,
        device=payload["device"],
        backend=payload.get("backend"),
    )
    from ..observability import NULL_STATISTICS, NULL_TRACER

    tracer = Tracer(name=payload["kernel"]) if payload.get("trace") else NULL_TRACER
    registry = StatisticsRegistry() if payload.get("stats") else NULL_STATISTICS
    with use_tracer(tracer), use_statistics(registry):
        comparison = service._run_payload(payload, attempt)
    counters = registry.as_dict() if registry.enabled else None
    return comparison, service.cache.stats, counters


def _row_cache_stats(rows: Sequence[FlowComparison]) -> CacheStats:
    """A batch's cache statistics, counted from its own rows.

    Every row is one lookup: a hit, or a miss that was compiled and
    stored.  ``hit_seconds`` sums the hit rows' ``lookup_seconds``.  The
    rows do not record memory-tier hits, corruption or store time, so
    those fields stay zero here; the handle's ``cache.stats`` and the
    ``cache.*`` counters keep them as process-wide totals.
    """
    stats = CacheStats()
    for row in rows:
        if row.cache_status == "hit":
            stats.hits += 1
            stats.hit_seconds += row.lookup_seconds
        elif row.cache_status == "miss":
            stats.misses += 1
            stats.stores += 1
    return stats


def _without_ir(comparison: FlowComparison) -> FlowComparison:
    """``comparison`` with the flows' final IR modules dropped (in place)."""
    comparison.adaptor.ir_module = None
    comparison.adaptor.modern_ir_module = None
    comparison.cpp.ir_module = None
    return comparison


class CompilationService:
    """Parallel, persistently-cached flow compilation.

    ``jobs`` caps the worker-process fan-out for :meth:`run_suite`
    (``1`` = in-process serial).  All workers share ``cache_dir``.
    ``policy`` is the default :class:`FailurePolicy` batches run under
    (fail-fast when unset); ``chaos`` arms the service-level fault
    injector (:class:`repro.testing.ChaosProfile`) for every batch —
    testing only, obviously.

    ``daemon`` routes :meth:`compile_batch` (and everything built on it)
    through a running compile daemon (``python -m repro serve``) at the
    given address instead of compiling in this process.  ``mem_entries``
    > 0 puts a bounded in-memory LRU tier in front of the disk cache
    (:class:`repro.service.tiers.TieredCompilationCache`) — the daemon
    turns this on; one-shot CLI runs keep the pure disk cache.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        device: str = "xc7z020",
        engine: Optional[DiagnosticEngine] = None,
        policy: Optional[FailurePolicy] = None,
        chaos=None,
        daemon: Optional[str] = None,
        mem_entries: int = 0,
        mem_bytes: int = 256 << 20,
        backend: Optional[str] = None,
    ):
        if jobs < 1:
            raise PipelineConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.device = device
        # Default synthesis backend for requests that do not pick their
        # own; validated eagerly so typos fail at construction.
        self.backend = resolve_backend_id(backend)
        self.engine = engine or DiagnosticEngine()
        self.policy = policy or FailurePolicy()
        self.chaos = chaos
        self.daemon = daemon
        if mem_entries > 0:
            self.cache: CompilationCache = TieredCompilationCache(
                cache_dir,
                engine=self.engine,
                mem_entries=mem_entries,
                mem_bytes=mem_bytes,
            )
        else:
            self.cache = CompilationCache(cache_dir, engine=self.engine)

    # -- single kernel ------------------------------------------------------
    def request_key(
        self,
        kernel: str,
        sizes: Dict[str, int],
        config: Union[str, OptimizationConfig],
        check_equivalence: bool = True,
        seed: int = 17,
        backend: Optional[str] = None,
    ) -> str:
        """The cache key :meth:`compile_one` files this request under.

        ``backend`` ``None`` means the service's default.  The daemon
        coalesces in-flight requests on this key and the chaos hooks
        address the entry a compile just wrote through it, so all three
        agree by construction.
        """
        return cache_key(
            kernel,
            sizes,
            resolve_config(config),
            device=self.device,
            check_equivalence=check_equivalence,
            seed=seed,
            backend=resolve_backend_id(backend or self.backend),
        )

    def compile_one(
        self,
        kernel: str,
        config: Union[str, OptimizationConfig] = "baseline",
        sizes: Optional[Dict[str, int]] = None,
        size_class: str = "SMALL",
        check_equivalence: bool = True,
        seed: int = 17,
        backend: Optional[str] = None,
    ) -> FlowComparison:
        """Cache-first comparison of one kernel under one config.

        ``backend`` overrides the service's default synthesis backend for
        this request; the backend id is part of the cache key, so rows
        never leak between engines.  Cache hits come back with
        ``cache_status="hit"``, their *original* ``compile_seconds``
        untouched, and the cost of the lookup itself in
        ``lookup_seconds`` — the two are never conflated.

        Hit or miss, the row's ``adaptor.ir_module``,
        ``adaptor.modern_ir_module`` and ``cpp.ir_module`` are ``None``;
        call :func:`repro.flows.compare_flows` for the modules.
        """
        config_obj = resolve_config(config)
        sizes = sizes if sizes is not None else _sizes_for(size_class, kernel)
        backend_id = resolve_backend_id(backend or self.backend)
        with get_tracer().span(
            f"compile:{kernel}", category="service",
            kernel=kernel, config=config_obj.name, backend=backend_id,
        ) as span:
            key = self.request_key(
                kernel, sizes, config_obj, check_equivalence, seed, backend_id
            )
            lookup_start = time.perf_counter()
            cached = self.cache.load(key)
            lookup_elapsed = time.perf_counter() - lookup_start
            if cached is not None:
                cached.cache_status = "hit"
                cached.lookup_seconds = lookup_elapsed
                span.set(cache="hit")
                return _without_ir(cached)
            # The coalescing property test counts underlying compiles
            # through this: one bump per actual compare_flows run, none
            # for hits or coalesced joins.
            get_statistics().bump("service", "compiles")
            comparison = _without_ir(compare_flows(
                kernel,
                sizes,
                config_obj,
                device=self.device,
                check_equivalence=check_equivalence,
                seed=seed,
                backend=backend_id,
            ))
            comparison.cache_status = "miss"
            comparison.lookup_seconds = lookup_elapsed
            span.set(cache="miss")
            self.cache.store(
                key,
                comparison,
                meta={"kernel": kernel, "config": config_obj.name},
            )
        return comparison

    # -- batch --------------------------------------------------------------
    def compile_batch(
        self,
        requests: Sequence[CompileRequest],
        span_name: str = "compile-batch",
        policy: Optional[FailurePolicy] = None,
        chaos=None,
    ) -> SuiteReport:
        """Compile an arbitrary request list, cache-first and in parallel.

        This is the fan-out primitive :meth:`run_suite` and the DSE
        explorer both sit on: successful comparisons come back in request
        order, one :class:`RequestOutcome` per request records what
        happened, and the report's cache/timing statistics cover exactly
        this batch.  ``policy`` (default: the service's, default
        fail-fast) decides whether a failure aborts the batch or is
        isolated into its outcome; under ``continue``/``retry`` the
        report is *partial* — completed work is never discarded.
        ``span_name`` labels the batch-level tracer span (``run-suite``
        for suite runs, ``dse-batch`` for exploration sweeps).

        When the service was built with ``daemon=ADDR``, the batch is
        shipped to that daemon over the NDJSON protocol instead of
        compiling here; the report comes back bit-identical to a local
        run (same fingerprints, same comparisons) because the daemon
        runs the very same code path against its own cache.
        """
        if self.daemon:
            from .client import DaemonClient

            with DaemonClient(self.daemon) as client:
                return client.compile_batch(
                    requests, policy=policy or self.policy, span_name=span_name
                )
        start = time.perf_counter()
        tracer = get_tracer()
        registry = get_statistics()
        policy = policy or self.policy
        chaos = chaos if chaos is not None else self.chaos
        resolved = [request.resolve() for request in requests]
        config_names = sorted({r.config.name for r in resolved})
        size_names = sorted({r.size_class for r in resolved})
        payloads = [
            {
                "cache_dir": self.cache.root,
                "kernel": request.kernel,
                "config": request.config,
                "sizes": request.sizes,
                "device": self.device,
                "check_equivalence": request.check_equivalence,
                "seed": request.seed,
                "backend": request.backend or self.backend,
                # Workers cannot see this process's ambient tracer/registry;
                # ship the opt-ins so they instrument themselves.
                "trace": tracer.enabled,
                "stats": registry.enabled,
            }
            for request in resolved
        ]
        if chaos is not None and chaos.total_faults:
            from ..testing.chaos import request_fingerprint

            fingerprints = [
                request_fingerprint(
                    r.kernel, str(r.config.signature()), r.sizes, r.seed
                )
                for r in resolved
            ]
            plans = chaos.assign(fingerprints)
            for payload, fingerprint in zip(payloads, fingerprints):
                if fingerprint in plans:
                    payload["chaos"] = plans[fingerprint]
        labels = [r.kernel for r in resolved]
        configs = [r.config.name for r in resolved]
        report = SuiteReport(
            config=(
                config_names[0] if len(config_names) == 1
                else f"mixed({len(config_names)})" if config_names else "-"
            ),
            size_class=(
                size_names[0] if len(size_names) == 1
                else "mixed" if size_names else "-"
            ),
            jobs=self.jobs,
            cache_root=self.cache.root,
            policy=policy.describe(),
        )

        with tracer.span(
            span_name, category="service",
            config=report.config, size=report.size_class,
            jobs=self.jobs, kernels=len(payloads),
        ) as suite_span:
            executor = ResilientExecutor(
                _compile_job,
                payloads,
                jobs=self.jobs,
                policy=policy,
                labels=labels,
                configs=configs,
                serial_fn=self._compile_in_process,
                engine=self.engine,
            )
            outcomes, results = executor.run()
            report.outcomes = outcomes
            report.degraded = executor.degraded
            for outcome in outcomes:
                if outcome.index in results:
                    comparison, stats, counters = results[outcome.index]
                    outcome.comparison_index = len(report.comparisons)
                    report.comparisons.append(comparison)
                    # Surface a worker's stats on this handle, so a caller
                    # polling ``service.cache.stats`` sees them.
                    if stats is not None:
                        self.cache.stats.merge(stats)
                    if counters:
                        registry.merge(counters)
            report.cache_stats = _row_cache_stats(report.comparisons)
            suite_span.set(
                hits=report.cache_stats.hits, misses=report.cache_stats.misses
            )
            if report.failures or report.degraded:
                counts = report.outcome_counts()
                suite_span.set(
                    ok=counts["ok"],
                    retried=counts["retried-then-ok"],
                    failed=counts["failed"],
                    timed_out=counts["timed-out"],
                    degraded=report.degraded,
                )
        if tracer.enabled:
            report.trace = suite_span.to_dict()
        report.seconds = time.perf_counter() - start
        return report

    def _compile_in_process(self, payload: dict, attempt: int):
        """The executor's in-process function: this handle compiles, so
        its memory tier, engine and ambient tracer see the request."""
        return self._run_payload(payload, attempt), None, None

    def _run_payload(self, payload: dict, attempt: int) -> FlowComparison:
        """One attempt at a batch payload through this handle's cache:
        :meth:`_compile_in_process` runs it on this handle,
        :func:`_compile_job` on a worker's private one.

        When the chaos harness is armed, the payload carries a per-request
        fault ``plan``; crash/hang/slow faults fire *before* the compile,
        corrupt-on-write *after* it.
        """
        plan = payload.get("chaos")
        if plan:
            from ..testing.chaos import apply_chaos

            apply_chaos(plan, attempt)
        comparison = self.compile_one(
            payload["kernel"],
            payload["config"],
            sizes=payload["sizes"],
            check_equivalence=payload["check_equivalence"],
            seed=payload["seed"],
            backend=payload.get("backend"),
        )
        if plan and plan.get("fault") == "corrupt-cache":
            from ..testing.chaos import corrupt_after_write

            key = self.request_key(
                payload["kernel"],
                payload["sizes"],
                payload["config"],
                payload["check_equivalence"],
                payload["seed"],
                payload.get("backend"),
            )
            corrupt_after_write(plan, attempt, self.cache, key)
        return comparison

    def run_suite(
        self,
        config: Union[str, OptimizationConfig] = "baseline",
        kernels: Optional[Sequence[str]] = None,
        size_class: str = "SMALL",
        check_equivalence: bool = True,
        seed: int = 17,
        policy: Optional[FailurePolicy] = None,
        backend: Optional[str] = None,
    ) -> SuiteReport:
        """Compile every (or the named) suite kernel under one config."""
        config_obj = resolve_config(config)
        names = list(kernels) if kernels is not None else list(SUITE_SIZES[size_class])
        requests = [
            CompileRequest(
                kernel=name,
                config=config_obj,
                sizes=_sizes_for(size_class, name),
                size_class=size_class,
                check_equivalence=check_equivalence,
                seed=seed,
                backend=backend,
            )
            for name in names
        ]
        return self.compile_batch(requests, span_name="run-suite", policy=policy)

    # -- maintenance passthroughs ------------------------------------------
    def cache_stats(self) -> Dict:
        stats = self.cache.disk_stats()
        by_kernel: Dict[str, int] = {}
        for header in self.cache.entry_headers():
            kernel = header.get("kernel", "?")
            by_kernel[kernel] = by_kernel.get(kernel, 0) + 1
        stats["by_kernel"] = by_kernel
        return stats

    def cache_clear(self) -> int:
        return self.cache.clear()


# Environment-tunable default fan-out for callers that do not care to pick
# (the benchmark harness, the CLI default).
def default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env is None or not env.strip():
        return 1
    try:
        jobs = int(env)
    except ValueError:
        raise PipelineConfigError(
            f"REPRO_JOBS must be a positive integer, got {env!r}"
        ) from None
    if jobs <= 0:
        raise PipelineConfigError(
            f"REPRO_JOBS must be a positive integer, got {env!r}"
        )
    return jobs
