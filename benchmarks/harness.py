"""Shared experiment harness for the benchmark suite.

Runs every suite kernel through both flows under a named optimisation
config and renders the paper-style tables.  Compilation goes through
:class:`repro.service.CompilationService`, so results are cached
*persistently* (content-addressed on disk, shared across pytest runs and
the ``python -m repro run-suite`` CLI) and the suite can fan out across
worker processes (``REPRO_JOBS=4 pytest benchmarks``).  Each
``test_table*/test_fig*`` module regenerates one table or figure of the
(reconstructed) evaluation; outputs are also written under
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.flows import FlowComparison
from repro.observability import (
    StatisticsRegistry,
    Tracer,
    dump_chrome_trace,
    use_statistics,
    use_tracer,
)
from repro.service import CompilationService, default_jobs
from repro.workloads.suite import SUITE_SIZES

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: When set, every ``run_suite`` call also writes a Chrome trace-event
#: file (``trace_<config>.json`` inside this directory) covering the
#: suite timeline plus one lane per kernel compile.  Unset (the default)
#: the harness runs with the no-op tracer — zero overhead.
TRACE_DIR = os.environ.get("REPRO_TRACE_OUT")

SUITE_SIZE_CLASS = "SMALL"
SUITE_KERNELS = list(SUITE_SIZES[SUITE_SIZE_CLASS].keys())

#: Benchmark runs share one on-disk cache next to the results, so a rerun
#: (or a different table touching the same config) is warm.  Override the
#: location with $REPRO_CACHE_DIR, the fan-out with $REPRO_JOBS.
CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR", os.path.join(os.path.dirname(__file__), ".cache")
)

SERVICE = CompilationService(
    cache_dir=CACHE_DIR,
    jobs=default_jobs(),
    # $REPRO_DAEMON=host:port routes every harness batch through a
    # running compile daemon instead of compiling in-process.
    daemon=os.environ.get("REPRO_DAEMON") or None,
    # $REPRO_BACKEND=dataflow reruns every table under another synthesis
    # backend (repro.backends id); unset keeps the paper's static engine.
    backend=os.environ.get("REPRO_BACKEND") or None,
)


def run_comparison(kernel: str, config_name: str = "baseline") -> FlowComparison:
    return SERVICE.compile_one(
        kernel,
        config_name,
        sizes=SUITE_SIZES[SUITE_SIZE_CLASS][kernel],
        check_equivalence=True,
        seed=17,
    )


def run_suite(config_name: str = "baseline") -> List[FlowComparison]:
    if TRACE_DIR:
        tracer = Tracer(name=f"suite:{config_name}")
        registry = StatisticsRegistry()
        with use_tracer(tracer), use_statistics(registry):
            report = _run_suite(config_name)
        os.makedirs(TRACE_DIR, exist_ok=True)
        lanes = [
            (c.kernel, [c.trace]) for c in report.comparisons if c.trace is not None
        ]
        dump_chrome_trace(
            os.path.join(TRACE_DIR, f"trace_{config_name}.json"),
            forest=tracer.roots,
            lanes=lanes,
        )
        write_result(
            f"stats_{config_name}", registry.summary(f"pass statistics ({config_name})")
        )
    else:
        report = _run_suite(config_name)
    write_result(f"service_report_{config_name}", report.summary())
    return report.comparisons


def _run_suite(config_name: str):
    return SERVICE.run_suite(
        config_name,
        kernels=SUITE_KERNELS,
        size_class=SUITE_SIZE_CLASS,
        check_equivalence=True,
        seed=17,
    )


def run_dse(
    kernel: str,
    space: str = "tiny",
    size_class: str = "MINI",
    strategy: str = "exhaustive",
    budget: Optional[int] = None,
):
    """Explore ``kernel``'s directive space through the shared cache.

    The DSE harness mode: the frontier's two extremes reproduce the
    paper's optimised-vs-unoptimised comparison (``baseline`` is the
    cheapest/slowest anchor, the most aggressive surviving point the
    fastest/most expensive).  Uses MINI sizes by default — a sweep wants
    many fast points, and the SMALL-size tables already cover scale.

    ``strategy``/``budget`` select a budgeted search
    (:mod:`repro.dse.search`); the exhaustive default keeps the tables'
    historical meaning.
    """
    from repro.dse import explore

    report = explore(
        kernel,
        size_class=size_class,
        space=space,
        service=SERVICE,
        check_equivalence=False,
        seed=17,
        strategy=strategy,
        budget=budget,
    )
    suffix = "" if strategy == "exhaustive" else f"_{strategy}"
    write_result(f"dse_{kernel}_{size_class}{suffix}", report.summary())
    return report


def write_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text.rstrip() + "\n")
    return path


def render_table(title: str, header: List[str], rows: List[List[str]],
                 widths: Optional[List[int]] = None) -> str:
    widths = widths or [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
        for i, h in enumerate(header)
    ]
    lines = [title, ""]
    lines.append("".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("-" * sum(widths))
    for row in rows:
        lines.append("".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
