"""The compilation service's subcommands of ``python -m repro``.

Subcommands::

    run-suite    compile the benchmark suite (parallel, cached);
                 --daemon ADDR routes it through a running daemon
    serve        run the long-lived compile daemon (NDJSON socket)
    load-test    replay a seeded request storm against a daemon
    cache stats  show on-disk cache footprint and per-kernel entry counts
    cache clear  drop every cache entry

Exit status: ``0`` on success, ``1`` when a run-suite row reports a
functional mismatch or a request failed/timed out under a
``continue``/``retry`` failure policy, ``2`` for usage/configuration
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..diagnostics.errors import CompilationError, PipelineConfigError
from .cache import default_cache_dir
from .resilience import FAILURE_MODES, FailurePolicy
from .service import NAMED_CONFIGS, CompilationService, default_jobs

__all__ = ["main", "build_parser", "register_subcommands"]


def register_subcommands(sub) -> None:
    """Add ``run-suite`` and ``cache`` to a subparsers object.

    Shared by this module's standalone parser and the unified
    ``python -m repro`` CLI; handlers dispatch via ``args.handler`` and
    expect ``args.cache_dir`` from the parent parser.
    """
    run = sub.add_parser("run-suite", help="compile the suite through the cache")
    run.set_defaults(handler=_cmd_run_suite)
    run.add_argument(
        "--config",
        default="baseline",
        choices=sorted(NAMED_CONFIGS),
        help="named optimisation recipe",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        help="worker processes (default: $REPRO_JOBS or 1)",
    )
    run.add_argument(
        "--size", default="SMALL", choices=["MINI", "SMALL"], help="problem size class"
    )
    run.add_argument(
        "--kernels",
        default=None,
        help="comma-separated kernel subset (default: whole suite)",
    )
    run.add_argument(
        "--no-equivalence",
        action="store_true",
        help="skip the interpreter-based functional check",
    )
    run.add_argument("--seed", type=int, default=17, help="equivalence-input seed")
    run.add_argument(
        "--fail-on-lint",
        action="store_true",
        help="exit 1 when any row's adapted module has lint findings "
        "(the in-pipeline gate already hard-fails error-severity ones)",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="run traced and write a Chrome trace-event JSON file here "
        "(open in chrome://tracing or Perfetto)",
    )
    run.add_argument(
        "--failure-policy",
        default=None,
        choices=list(FAILURE_MODES),
        dest="failure_policy",
        help="how worker failures are handled: fail-fast aborts the batch, "
        "continue isolates them into per-request outcomes, retry re-runs "
        "them under deterministic backoff (default: fail-fast)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock deadline; past it the worker is "
        "abandoned and the request recorded timed-out (needs --jobs > 1)",
    )
    run.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="executions per request (default: 2 under retry, else 1)",
    )
    run.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="arm the deterministic fault injector, e.g. "
        "'seed=42,crash=1,hang=1,slow=1' (chaos testing only)",
    )
    run.add_argument(
        "--outcomes-json",
        default=None,
        metavar="PATH",
        dest="outcomes_json",
        help="write per-request outcomes, their status counts and the "
        "service.* resilience counters as JSON here",
    )
    run.add_argument(
        "--daemon",
        default=None,
        metavar="ADDR",
        help="route the batch through a running compile daemon at ADDR "
        "(host:port or unix:/path.sock) instead of compiling here",
    )
    run.add_argument(
        "--backend",
        default=None,
        metavar="ID",
        help="synthesis backend for every row (repro.backends id, e.g. "
        "static or dataflow; default: static)",
    )

    serve = sub.add_parser("serve", help="run the long-lived compile daemon")
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument(
        "--address",
        default="127.0.0.1:0",
        help="listen address: host:port (port 0 = pick one) or "
        "unix:/path.sock (default: 127.0.0.1:0)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        help="worker processes per batch (default: $REPRO_JOBS or 1)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admitted-but-unfinished request bound; batches past it are "
        "rejected with REPRO-SVC-004 (default: 64)",
    )
    serve.add_argument(
        "--mem-entries",
        type=int,
        default=256,
        metavar="N",
        help="hot in-memory LRU tier capacity in entries (default: 256)",
    )
    serve.add_argument(
        "--mem-bytes",
        type=int,
        default=256 << 20,
        metavar="BYTES",
        help="hot in-memory LRU tier capacity in bytes (default: 256 MiB)",
    )
    serve.add_argument(
        "--address-file",
        default=None,
        metavar="PATH",
        help="write the live address here once bound (lets scripts start "
        "the daemon with port 0 and discover the real port)",
    )
    serve.add_argument(
        "--failure-policy",
        default=None,
        choices=list(FAILURE_MODES),
        dest="failure_policy",
        help="default FailurePolicy for batches that do not ship their own",
    )
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    serve.add_argument("--max-attempts", type=int, default=None, metavar="N")
    serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="arm the deterministic fault injector daemon-wide "
        "(chaos testing only)",
    )

    load = sub.add_parser(
        "load-test", help="replay a seeded request storm against a daemon"
    )
    load.set_defaults(handler=_cmd_load_test)
    load.add_argument("--daemon", required=True, metavar="ADDR",
                      help="address of the daemon under test")
    load.add_argument("--requests", type=int, default=1000)
    load.add_argument("--clients", type=int, default=4)
    load.add_argument("--seed", type=int, default=17)
    load.add_argument(
        "--kernels",
        default="gemm,atax,bicg,mvt",
        help="comma-separated replay-pool kernels",
    )
    load.add_argument(
        "--configs",
        default="baseline,optimized",
        help="comma-separated named configs for the mixed-config pool",
    )
    load.add_argument("--size", default="MINI", choices=["MINI", "SMALL"])
    load.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON load report here (the CI artifact)",
    )
    load.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit 1 unless the measured hit rate reaches this",
    )
    load.add_argument(
        "--require-coalescing",
        action="store_true",
        help="exit 1 unless at least one request coalesced",
    )

    cache = sub.add_parser("cache", help="cache maintenance")
    cache.set_defaults(handler=_cmd_cache)
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry counts and disk footprint")
    cache_sub.add_parser("clear", help="delete every cache entry")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel cached compilation service for the flow suite.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache root (default: $REPRO_CACHE_DIR or {default_cache_dir()!r})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    register_subcommands(sub)
    return parser


def policy_from_args(args: argparse.Namespace) -> Optional[FailurePolicy]:
    """A :class:`FailurePolicy` from ``--failure-policy``/``--timeout``/
    ``--max-attempts``, or ``None`` when none were given (service default)."""
    if (
        getattr(args, "failure_policy", None) is None
        and getattr(args, "timeout", None) is None
        and getattr(args, "max_attempts", None) is None
    ):
        return None
    return FailurePolicy(
        mode=getattr(args, "failure_policy", None) or "fail-fast",
        max_attempts=getattr(args, "max_attempts", None),
        timeout=getattr(args, "timeout", None),
    )


def _chaos_from_args(args: argparse.Namespace):
    if not getattr(args, "chaos", None):
        return None
    from ..testing.chaos import ChaosProfile

    try:
        return ChaosProfile.from_spec(args.chaos)
    except ValueError as exc:
        raise PipelineConfigError(f"bad --chaos spec: {exc}") from None


def _write_outcomes_json(path: str, report, registry) -> None:
    doc = {
        "policy": report.policy,
        "jobs": report.jobs,
        "degraded": report.degraded,
        "seconds": round(report.seconds, 3),
        "counts": report.outcome_counts(),
        "outcomes": [o.to_dict() for o in report.outcomes],
        "counters": (
            registry.as_dict().get("service", {}) if registry is not None else {}
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..observability import use_statistics
    from .daemon import CompileDaemon

    daemon = CompileDaemon(
        address=args.address,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        policy=policy_from_args(args),
        chaos=_chaos_from_args(args),
        max_queue=args.max_queue,
        mem_entries=args.mem_entries,
        mem_bytes=args.mem_bytes,
    )
    address = daemon.start()
    if args.address_file:
        with open(args.address_file, "w", encoding="utf-8") as fh:
            fh.write(address + "\n")
    print(f"compile daemon listening on {address} "
          f"(jobs={args.jobs}, max-queue={args.max_queue}, "
          f"mem-entries={args.mem_entries})", flush=True)
    # The serve loop itself runs under the daemon's registry so the
    # main-thread shutdown path is counted like everything else.
    try:
        with use_statistics(daemon.registry):
            daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.stop()
    print("compile daemon stopped", flush=True)
    return 0


def _cmd_load_test(args: argparse.Namespace) -> int:
    from ..testing.load import LoadProfile, run_load

    profile = LoadProfile(
        requests=args.requests,
        clients=args.clients,
        seed=args.seed,
        kernels=tuple(k for k in args.kernels.split(",") if k),
        configs=tuple(c for c in args.configs.split(",") if c),
        size_class=args.size,
    )
    report = run_load(args.daemon, profile)
    print(report.summary())
    if args.out:
        report.write_json(args.out)
        print(f"load report written to {args.out}", file=sys.stderr)
    failed = report.count("failed")
    if failed:
        print(f"LOAD FAILURES: {failed} request(s)", file=sys.stderr)
        return 1
    if args.min_hit_rate is not None and report.hit_rate < args.min_hit_rate:
        print(
            f"HIT RATE {report.hit_rate:.1%} below required "
            f"{args.min_hit_rate:.1%}",
            file=sys.stderr,
        )
        return 1
    if args.require_coalescing and report.count("coalesced") == 0:
        print("NO COALESCING OBSERVED", file=sys.stderr)
        return 1
    return 0


def _cmd_run_suite(args: argparse.Namespace) -> int:
    service = CompilationService(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        policy=policy_from_args(args),
        chaos=_chaos_from_args(args),
        daemon=getattr(args, "daemon", None),
        backend=getattr(args, "backend", None),
    )
    kernels = args.kernels.split(",") if args.kernels else None

    def _run():
        return service.run_suite(
            args.config,
            kernels=kernels,
            size_class=args.size,
            check_equivalence=not args.no_equivalence,
            seed=args.seed,
        )

    registry = None
    if args.trace_out or args.outcomes_json:
        # The service.* resilience counters (and the trace) only exist
        # under an installed registry/tracer — ambient observability is a
        # no-op by default.
        from ..observability import StatisticsRegistry

        registry = StatisticsRegistry()
    if args.trace_out:
        from ..observability import (
            Tracer,
            dump_chrome_trace,
            use_statistics,
            use_tracer,
        )

        tracer = Tracer(name="run-suite")
        with use_tracer(tracer), use_statistics(registry):
            report = _run()
        lanes = [
            (c.kernel, [c.trace]) for c in report.comparisons if c.trace is not None
        ]
        dump_chrome_trace(args.trace_out, forest=tracer.roots, lanes=lanes)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    elif registry is not None:
        from ..observability import use_statistics

        with use_statistics(registry):
            report = _run()
    else:
        report = _run()
    if args.outcomes_json:
        _write_outcomes_json(args.outcomes_json, report, registry)
        print(f"outcomes written to {args.outcomes_json}", file=sys.stderr)
    print(report.summary())
    mismatched = [
        c.kernel for c in report.comparisons if c.functionally_equivalent is False
    ]
    if mismatched:
        print(f"FUNCTIONAL MISMATCH: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    if args.fail_on_lint and report.lint_clean is False:
        dirty = ", ".join(c.kernel for c in report.lint_dirty)
        print(f"LINT FINDINGS: {dirty}", file=sys.stderr)
        return 1
    if report.failures:
        failed = ", ".join(
            f"{o.kernel} ({o.status})" for o in report.failures
        )
        print(f"INCOMPLETE: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    service = CompilationService(cache_dir=args.cache_dir)
    if args.cache_command == "stats":
        stats = service.cache_stats()
        print(f"cache root: {stats['root']}")
        print(f"entries:    {stats['entries']}")
        print(f"bytes:      {stats['bytes']}")
        for kernel, count in sorted(stats["by_kernel"].items()):
            print(f"  {kernel:<12} {count}")
        return 0
    if args.cache_command == "clear":
        removed = service.cache_clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    # build_parser() itself can raise: default_jobs() validates
    # $REPRO_JOBS at parser-construction time.
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.handler(args)
    except CompilationError as exc:
        code = getattr(exc, "code", "REPRO-E000")
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 2
