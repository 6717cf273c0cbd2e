"""Metric tables and the summary statistics every report uses.

The end-to-end table is the regression contract: ``BENCHMARK.json`` at
the repository root mirrors it (``test_smoke`` keeps the two in step).
This module imports nothing from ``repro`` so the parent process and
``compare`` stay light.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


class Metric(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # allowed relative worsening (end-to-end only)


#: What a user of the compiler waits on or pays for.  Every workload
#: reports every one of these (see README for the per-workload meaning).
#: Timing bounds are the widest allowed: on the 2-vCPU reference host
#: whole runs slow down by 10-30% for minutes at a time (README).
END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower", 0.25),
    "throughput_rps": Metric("1/s", "higher", 0.25),
    "latency_p50_ms": Metric("ms", "lower", 0.25),
    "latency_p90_ms": Metric("ms", "lower", 0.25),
    "latency_p99_ms": Metric("ms", "lower", 0.25),
    "hit_throughput_rps": Metric("1/s", "higher", 0.25),
    "peak_rss_mb": Metric("MB", "lower", 0.15),
}

#: Failed or wrong outputs over attempts.  Not a bounded metric (it is 0
#: on a healthy run): ``compare`` flags any increase.
ERROR_RATE = "error_rate"

#: Per-layer metrics from the traced run.  ``_ms`` values are medians
#: per request over the requests that reached the layer; a layer the
#: workload never reaches reads 0.
PER_LAYER: Dict[str, Metric] = {
    "workloads.build_ms": Metric("ms", "lower"),
    "mlir.lower_ms": Metric("ms", "lower"),
    "mlir.to_llvm_ms": Metric("ms", "lower"),
    "ir.cleanup_ms": Metric("ms", "lower"),
    "adaptor.run_ms": Metric("ms", "lower"),
    "lint.run_ms": Metric("ms", "lower"),
    "hlscpp.codegen_ms": Metric("ms", "lower"),
    "hlscpp.frontend_ms": Metric("ms", "lower"),
    "backends.static.synth_ms": Metric("ms", "lower"),
    "backends.dataflow.synth_ms": Metric("ms", "lower"),
    "mlir.llvm_insts": Metric("count", "lower"),
    "ir.insts_after_cleanup": Metric("count", "lower"),
    "hlscpp.source_bytes": Metric("bytes", "lower"),
    "interp.run_ms": Metric("ms", "lower"),
    "interp.steps": Metric("count", "lower"),
    "interp.steps_per_s": Metric("1/s", "higher"),
    "oracle.ms": Metric("ms", "lower"),
    "service.overhead_ms": Metric("ms", "lower"),
    "service.cache_key_ms": Metric("ms", "lower"),
    "service.cache_store_ms": Metric("ms", "lower"),
    "service.entry_bytes": Metric("bytes", "lower"),
    "service.disk_load_ms": Metric("ms", "lower"),
    "service.tiers.mem_load_ms": Metric("ms", "lower"),
    "service.protocol.encode_ms": Metric("ms", "lower"),
    "service.protocol.decode_ms": Metric("ms", "lower"),
    "service.protocol.response_bytes": Metric("bytes", "lower"),
    "service.daemon.roundtrip_hit_ms": Metric("ms", "lower"),
    "service.daemon.roundtrip_miss_ms": Metric("ms", "lower"),
    "service.daemon.unexplained_hit_ms": Metric("ms", "lower"),
    "service.daemon.compiles": Metric("count", "lower"),
    "service.daemon.mem_hits": Metric("count", "higher"),
    "service.daemon.hit_ratio": Metric("ratio", "higher"),
    "dse.cold_explore_ms": Metric("ms", "lower"),
    "dse.warm_explore_ms": Metric("ms", "lower"),
    "dse.overhead_ratio": Metric("ratio", "lower"),
    "dse.points_visited": Metric("count", "lower"),
    "dse.frontier_ratio": Metric("ratio", "higher"),
    "proc.rss_growth_kb_per_request": Metric("kB", "lower"),
    "trace.overhead_ratio": Metric("ratio", "lower"),
}

#: Per-layer ``_ms`` metrics read straight off benchmark-owned spans:
#: metric -> span name.  The value is the median, over requests, of the
#: summed duration of that span within one request.
SPAN_METRICS: Dict[str, str] = {
    "workloads.build_ms": "workloads.build",
    "mlir.lower_ms": "mlir.lower",
    "mlir.to_llvm_ms": "mlir.to_llvm",
    "ir.cleanup_ms": "ir.cleanup",
    "adaptor.run_ms": "adaptor.run",
    "lint.run_ms": "lint.run",
    "hlscpp.codegen_ms": "hlscpp.codegen",
    "hlscpp.frontend_ms": "hlscpp.frontend",
    "backends.static.synth_ms": "backends.static.synth",
    "backends.dataflow.synth_ms": "backends.dataflow.synth",
    "interp.run_ms": "interp.run",
    "oracle.ms": "oracle",
    "service.cache_key_ms": "service.cache_key",
    "service.cache_store_ms": "service.cache_store",
    "service.disk_load_ms": "service.disk_load",
    "service.tiers.mem_load_ms": "service.tiers.mem_load",
    "service.protocol.encode_ms": "service.protocol.encode",
    "service.protocol.decode_ms": "service.protocol.decode",
    "service.daemon.roundtrip_hit_ms": "service.daemon.roundtrip_hit",
    "service.daemon.roundtrip_miss_ms": "service.daemon.roundtrip_miss",
    "dse.cold_explore_ms": "dse.cold_explore",
    "dse.warm_explore_ms": "dse.warm_explore",
}

#: Per-request values the traced path records beside its spans (median
#: per request).
RECORDED_METRICS = (
    "mlir.llvm_insts",
    "ir.insts_after_cleanup",
    "hlscpp.source_bytes",
    "interp.steps",
    "service.entry_bytes",
    "service.overhead_ms",
    "service.protocol.response_bytes",
    "service.daemon.unexplained_hit_ms",
)


def percentile(weighted: Sequence[Tuple[float, int]], fraction: float) -> float:
    """Nearest-rank percentile of ``(value, weight)`` pairs (0 for none)."""
    ordered = sorted(weighted)
    rank = max(1, math.ceil(fraction * sum(w for _, w in ordered)))
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None below 2
    samples) — the same estimator the acceptance check applies."""
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if not mid:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def entry(value: float, unit: str, samples: Optional[List[float]] = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = list(samples)
    return out
