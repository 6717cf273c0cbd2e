"""Pipeline observability: structured tracing + ``-stats`` counters.

The subsystem has three pieces, all ambient and zero-cost-when-disabled:

* :class:`Tracer` / :func:`use_tracer` — nested wall-time spans
  (flow → stage → pass → rewrite) recorded by the pass managers, flow
  drivers, interpreter and compilation service;
* :class:`StatisticsRegistry` / :func:`use_statistics` — LLVM
  ``-stats``-style named counters every pass and subsystem bumps;
* exporters — Chrome ``chrome://tracing`` trace-event JSON
  (:func:`chrome_trace`), human-readable summaries, counter diff tables,
  and a schema check (:func:`validate_chrome_trace`) CI runs on every
  exported trace.

``python -m repro trace|stats|diff|validate|hot`` drives it
from a shell.
"""

from .export import (
    chrome_trace,
    chrome_trace_events,
    diff_table,
    dump_chrome_trace,
    hot_ranking,
    hot_table,
    load_span_forest,
    stats_diff,
    trace_summary,
)
from .schema import check_chrome_trace, load_and_check, validate_chrome_trace
from .stats import (
    NULL_STATISTICS,
    NullStatistics,
    StatisticsRegistry,
    get_statistics,
    use_statistics,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer, get_tracer, use_tracer

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "use_tracer",
    "StatisticsRegistry",
    "NullStatistics",
    "NULL_STATISTICS",
    "get_statistics",
    "use_statistics",
    "chrome_trace",
    "chrome_trace_events",
    "dump_chrome_trace",
    "trace_summary",
    "stats_diff",
    "diff_table",
    "hot_ranking",
    "hot_table",
    "load_span_forest",
    "validate_chrome_trace",
    "check_chrome_trace",
    "load_and_check",
]
