"""The observability subcommands of ``python -m repro`` — inspect where
compile time and IR churn go.

Subcommands::

    trace <kernel>      compile under a tracer, emit Chrome trace JSON
    stats <kernel>      compile under the counter registry, print -stats
    diff <kernel>       counter deltas between two optimisation configs
    validate <path>     schema-check an exported trace file
    hot <path>          rank pass-level hotspots from a committed trace

Exit status: ``0`` on success, ``1`` when ``validate`` finds problems
(or ``hot`` finds no spans in the requested category), ``2`` for
usage/configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .export import chrome_trace, diff_table, hot_ranking, hot_table, load_span_forest, trace_summary
from .schema import validate_chrome_trace
from .stats import StatisticsRegistry, use_statistics
from .tracer import Tracer, use_tracer

__all__ = ["main", "build_parser", "register_subcommands"]


def _add_compile_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("kernel", help="suite kernel name (e.g. gemm)")
    parser.add_argument(
        "--config",
        default="baseline",
        help="named optimisation recipe (default: baseline)",
    )
    parser.add_argument(
        "--size", default="MINI", choices=["MINI", "SMALL"],
        help="problem size class (default: MINI)",
    )
    parser.add_argument(
        "--no-equivalence",
        action="store_true",
        help="skip the interpreter-based functional check",
    )


def register_subcommands(sub) -> None:
    """Add ``trace``/``stats``/``diff``/``validate`` (with handler
    defaults) to a subparsers object — shared by the standalone parser
    and the unified ``python -m repro`` CLI."""
    trace = sub.add_parser("trace", help="emit a Chrome trace for one kernel compile")
    trace.set_defaults(handler=_cmd_trace)
    _add_compile_options(trace)
    trace.add_argument(
        "-o", "--out", default=None,
        help="write the trace JSON here (default: stdout)",
    )
    trace.add_argument(
        "--summary", action="store_true",
        help="also print the human-readable span tree to stderr",
    )

    stats = sub.add_parser("stats", help="print -stats style counters for one compile")
    stats.set_defaults(handler=_cmd_stats)
    _add_compile_options(stats)

    diff = sub.add_parser("diff", help="counter deltas between two configs")
    diff.set_defaults(handler=_cmd_diff)
    diff.add_argument("kernel", help="suite kernel name (e.g. gemm)")
    diff.add_argument(
        "--baseline", default="baseline",
        help="left-hand named config (default: baseline)",
    )
    diff.add_argument(
        "--optimized", default="optimized",
        help="right-hand named config (default: optimized)",
    )
    diff.add_argument(
        "--size", default="MINI", choices=["MINI", "SMALL"],
        help="problem size class (default: MINI)",
    )
    diff.add_argument(
        "--no-equivalence", action="store_true",
        help="skip the interpreter-based functional check",
    )

    validate = sub.add_parser("validate", help="schema-check a trace JSON file")
    validate.set_defaults(handler=_cmd_validate)
    validate.add_argument("path", help="Chrome trace-event JSON file")

    hot = sub.add_parser(
        "hot", help="rank pass-level hotspots from a committed trace file"
    )
    hot.set_defaults(handler=_cmd_hot)
    hot.add_argument(
        "path",
        help="trace JSON: a Chrome trace, a span tree (Span.to_dict), or "
        "a report carrying one under 'trace'",
    )
    hot.add_argument(
        "--category", default="pass",
        help="span category to aggregate (default: pass)",
    )
    hot.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N hottest spans (default: all)",
    )
    hot.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the ranking as JSON instead of a table",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Tracing and pass-statistics tooling for the flow pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    register_subcommands(sub)
    return parser


def _observed_compile(
    kernel: str, config: str, size: str, check_equivalence: bool
) -> Tuple[Tracer, StatisticsRegistry]:
    """Run one flow comparison under a fresh tracer + counter registry."""
    from ..flows.compare import compare_flows
    from ..service.service import resolve_config
    from ..workloads.suite import SUITE_SIZES

    try:
        sizes = SUITE_SIZES[size][kernel]
    except KeyError:
        from ..diagnostics.errors import PipelineConfigError

        raise PipelineConfigError(
            f"unknown kernel {kernel!r} for size class {size!r}; "
            f"have {sorted(SUITE_SIZES.get(size, {}))}"
        ) from None
    tracer = Tracer(name=f"{kernel}:{config}")
    registry = StatisticsRegistry()
    with use_tracer(tracer), use_statistics(registry):
        compare_flows(
            kernel,
            sizes,
            resolve_config(config),
            check_equivalence=check_equivalence,
        )
    return tracer, registry


def _cmd_trace(args: argparse.Namespace) -> int:
    tracer, _ = _observed_compile(
        args.kernel, args.config, args.size, not args.no_equivalence
    )
    document = chrome_trace(tracer)
    if args.summary:
        print(trace_summary(tracer, title=f"trace: {args.kernel}"), file=sys.stderr)
    text = json.dumps(document)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(
            f"wrote {len(document['traceEvents'])} trace events to {args.out}",
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    _, registry = _observed_compile(
        args.kernel, args.config, args.size, not args.no_equivalence
    )
    print(registry.summary(title=f"Statistics Collected ({args.kernel}, {args.config})"))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    _, left = _observed_compile(
        args.kernel, args.baseline, args.size, not args.no_equivalence
    )
    _, right = _observed_compile(
        args.kernel, args.optimized, args.size, not args.no_equivalence
    )
    print(
        diff_table(
            left.as_dict(),
            right.as_dict(),
            left_label=args.baseline,
            right_label=args.optimized,
            title=f"counter diff: {args.kernel} ({args.baseline} vs {args.optimized})",
        )
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.path) as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(document)
    if problems:
        print(f"INVALID: {args.path}", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    events = document["traceEvents"]
    spans = sum(1 for e in events if isinstance(e, dict) and e.get("ph") == "X")
    print(f"OK: {args.path}: {len(events)} events, {spans} spans")
    return 0


def _cmd_hot(args: argparse.Namespace) -> int:
    try:
        with open(args.path) as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 2
    forest = load_span_forest(document)
    ranking = hot_ranking(forest, category=args.category)
    if args.as_json:
        shown = ranking if args.top is None else ranking[: args.top]
        print(json.dumps(shown, indent=2))
    else:
        print(
            hot_table(
                forest,
                category=args.category,
                top=args.top,
                title=f"hotspots: {args.path} [{args.category}]",
            )
        )
    return 0 if ranking else 1


def main(argv: Optional[List[str]] = None) -> int:
    from ..diagnostics.errors import CompilationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CompilationError as exc:
        code = getattr(exc, "code", "REPRO-E000")
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 2
