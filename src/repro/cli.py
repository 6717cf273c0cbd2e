"""``python -m repro`` — the single front door to every tool.

Subcommands::

    run-suite    compile the benchmark suite (parallel, cached;
                 --daemon ADDR routes through a running daemon)
    serve        run the long-lived compile daemon (NDJSON socket)
    load-test    replay a seeded request storm against a daemon
    cache        cache maintenance (stats / clear)
    lint         HLS-compatibility linter (check / rules)
    trace        Chrome trace of one kernel compile
    stats        -stats style counters for one compile
    diff         counter deltas between two configs
    validate     schema-check an exported trace file
    dse          design-space exploration (Pareto frontier per kernel)
    bench        paper-style optimised-vs-baseline latency table

Exit status: ``0`` on success, ``1`` for failing verdicts (mismatch,
lint findings, empty frontier), ``2`` for usage/configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .diagnostics.errors import CompilationError
from .service.cache import default_cache_dir

__all__ = ["main", "build_parser"]


def _configure_bench(sub) -> None:
    bench = sub.add_parser(
        "bench",
        help="run the suite under several configs and print the "
        "paper-style latency comparison",
    )
    bench.set_defaults(handler=_cmd_bench)
    bench.add_argument(
        "--configs", default="baseline,optimized",
        help="comma-separated named configs to compare "
        "(default: baseline,optimized — the paper's two columns)",
    )
    bench.add_argument(
        "--size", default="MINI", choices=["MINI", "SMALL"],
        help="problem size class (default: MINI)",
    )
    bench.add_argument(
        "--kernels", default=None,
        help="comma-separated kernel subset (default: whole suite)",
    )
    bench.add_argument("--jobs", type=int, default=None, help="worker processes")
    bench.add_argument(
        "--no-equivalence", action="store_true",
        help="skip the interpreter-based functional check",
    )
    bench.add_argument(
        "--daemon", default=None, metavar="ADDR",
        help="route compilation through a running compile daemon",
    )
    bench.add_argument(
        "--backend", default=None, metavar="ID",
        help="synthesis backend for every compile (repro.backends id, "
        "e.g. static or dataflow; default: static)",
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from .service.service import CompilationService, default_jobs

    jobs = args.jobs if args.jobs is not None else default_jobs()
    service = CompilationService(
        cache_dir=args.cache_dir, jobs=jobs, daemon=args.daemon,
        backend=getattr(args, "backend", None),
    )
    config_names = [c for c in args.configs.split(",") if c]
    kernels = args.kernels.split(",") if args.kernels else None
    reports = {}
    for config in config_names:
        reports[config] = service.run_suite(
            config,
            kernels=kernels,
            size_class=args.size,
            check_equivalence=not args.no_equivalence,
        )
    base_name = config_names[0]
    base = {c.kernel: c for c in reports[base_name].comparisons}
    header = f"{'kernel':<12}" + "".join(
        f" {name:>12}" for name in config_names
    )
    if len(config_names) > 1:
        header += f" {'speedup':>8}"
    lines = [
        f"bench: size={args.size} jobs={jobs} "
        f"configs={','.join(config_names)} backend={service.backend}",
        "",
        header,
    ]
    for kernel in base:
        row = f"{kernel:<12}"
        for name in config_names:
            match = next(
                (c for c in reports[name].comparisons if c.kernel == kernel), None
            )
            row += f" {match.adaptor.latency if match else '-':>12}"
        if len(config_names) > 1:
            last = next(
                (
                    c
                    for c in reports[config_names[-1]].comparisons
                    if c.kernel == kernel
                ),
                None,
            )
            if last and last.adaptor.latency:
                row += f" {base[kernel].adaptor.latency / last.adaptor.latency:>8.2f}"
            else:
                row += f" {'-':>8}"
        lines.append(row)
    total_hits = sum(r.cache_stats.hits for r in reports.values())
    total_misses = sum(r.cache_stats.misses for r in reports.values())
    lines.append("")
    lines.append(f"cache: {total_hits} hit(s) / {total_misses} miss(es)")
    print("\n".join(lines))
    mismatched = [
        c.kernel
        for report in reports.values()
        for c in report.comparisons
        if c.functionally_equivalent is False
    ]
    if mismatched:
        print(f"FUNCTIONAL MISMATCH: {', '.join(sorted(set(mismatched)))}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .dse import cli as dse_cli
    from .lint import cli as lint_cli
    from .observability import cli as obs_cli
    from .service import cli as service_cli

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MLIR HLS Adaptor reproduction — unified command line.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache root for cached subcommands "
        f"(default: $REPRO_CACHE_DIR or {default_cache_dir()!r})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    service_cli.register_subcommands(sub)  # run-suite, serve, load-test, cache
    lint_cli.register_subcommand(sub)  # lint {check,rules}
    obs_cli.register_subcommands(sub)  # trace, stats, diff, validate, hot
    dse = sub.add_parser(
        "dse", help="explore a kernel's directive space (Pareto frontier)"
    )
    dse.set_defaults(handler=dse_cli.run)
    dse_cli.add_arguments(dse)
    _configure_bench(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # build_parser() itself can raise: default_jobs() validates
    # $REPRO_JOBS at parser-construction time.
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: unknown rule {exc}", file=sys.stderr)
        return 2
    except (CompilationError, ValueError) as exc:
        code = getattr(exc, "code", None)
        prefix = f"error[{code}]" if code else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2
