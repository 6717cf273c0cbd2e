"""``python -m repro lint`` — lint modules against the HLS contract.

Subcommands::

    check <target>...   lint suite kernels (post- or ``--pre``-adaptor) or .ll files
    rules               print the rule registry (markdown table or ``--json``)

Exit status: ``0`` when every target passes the severity threshold,
``1`` when any target fails it, ``2`` for usage/configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .linter import LintReport, run_lint
from .rules import all_rules

__all__ = ["main", "build_parser", "register_subcommand", "render_rules_markdown"]


def _add_subcommands(sub) -> None:
    """Add ``check``/``rules`` (with handler defaults) to a subparsers
    object — shared by the standalone parser and the unified CLI's nested
    ``lint`` subcommand."""
    check = sub.add_parser(
        "check", help="lint kernels or .ll files against the rule registry"
    )
    check.set_defaults(handler=_cmd_check)
    check.add_argument(
        "targets",
        nargs="+",
        metavar="target",
        help="suite kernel name (e.g. gemm) or path to a .ll file",
    )
    check.add_argument(
        "--pre",
        action="store_true",
        help="lint the pre-adaptor (lowered + cleaned) module instead of "
        "running the adaptor first (kernel targets only)",
    )
    check.add_argument(
        "--config",
        default="optimized",
        help="named optimisation recipe for kernel targets (default: optimized)",
    )
    check.add_argument(
        "--size", default="MINI", choices=["MINI", "SMALL"],
        help="problem size class for kernel targets (default: MINI)",
    )
    check.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="CODE|NAME",
        help="run only this rule (repeatable)",
    )
    check.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="CODE|NAME",
        help="skip this rule (repeatable)",
    )
    check.add_argument(
        "--backend",
        default=None,
        metavar="ID",
        help="lint for this synthesis backend's rule set (repro.backends "
        "id, e.g. static or dataflow; default: the full neutral registry)",
    )
    check.add_argument(
        "--fail-on",
        choices=["error", "warning"],
        default="error",
        help="severity threshold for a failing exit status (default: error)",
    )
    check.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )

    rules = sub.add_parser("rules", help="print the registered rule table")
    rules.set_defaults(handler=_cmd_rules)
    rules.add_argument(
        "--json", action="store_true", help="machine-readable registry on stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Static HLS-compatibility linter for adapted LLVM IR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommands(sub)
    return parser


def register_subcommand(sub) -> None:
    """Add a nested ``lint {check,rules}`` subcommand to the unified CLI."""
    lint = sub.add_parser(
        "lint", help="lint modules against the HLS compatibility contract"
    )
    lint_sub = lint.add_subparsers(dest="lint_command", required=True)
    _add_subcommands(lint_sub)


def _kernel_module(kernel: str, size: str, config: str, pre: bool):
    """Build the lint subject for a suite kernel: the lowered + cleaned
    module, adapted unless ``pre`` (gate off — the CLI lints explicitly)."""
    from ..adaptor import HLSAdaptor
    from ..ir.transforms import standard_cleanup_pipeline
    from ..mlir.passes import convert_to_llvm, lowering_pipeline
    from ..service.service import resolve_config
    from ..workloads import build_kernel
    from ..workloads.suite import SUITE_SIZES

    try:
        sizes = SUITE_SIZES[size][kernel]
    except KeyError:
        from ..diagnostics.errors import PipelineConfigError

        raise PipelineConfigError(
            f"unknown kernel {kernel!r} for size class {size!r}; "
            f"have {sorted(SUITE_SIZES.get(size, {}))}"
        ) from None
    spec = build_kernel(kernel, **sizes)
    resolve_config(config).apply(spec)
    lowering_pipeline().run(spec.module)
    module = convert_to_llvm(spec.module)
    standard_cleanup_pipeline().run(module)
    if not pre:
        HLSAdaptor(lint="off").run(module)
    return module


def _load_target(target: str, args: argparse.Namespace):
    if target.endswith(".ll"):
        from ..ir.parser import parse_module

        with open(target) as fh:
            module = parse_module(fh.read())
        module.name = target
        return module
    return _kernel_module(target, args.size, args.config, args.pre)


def _cmd_check(args: argparse.Namespace) -> int:
    reports: List[LintReport] = []
    backend = getattr(args, "backend", None)
    if backend is not None:
        from ..backends import resolve_backend_id

        backend = resolve_backend_id(backend)
    for target in args.targets:
        module = _load_target(target, args)
        reports.append(
            run_lint(
                module, select=args.rule, disable=args.disable, backend=backend
            )
        )
    failed = [r for r in reports if not r.ok(args.fail_on)]
    if args.json:
        print(
            json.dumps(
                {
                    "fail_on": args.fail_on,
                    "ok": not failed,
                    "reports": [r.to_dict() for r in reports],
                },
                indent=2,
            )
        )
    else:
        for report in reports:
            print(report.render())
        verdict = "FAIL" if failed else "OK"
        print(
            f"{verdict}: {len(reports) - len(failed)}/{len(reports)} "
            f"target(s) pass at --fail-on={args.fail_on}"
        )
    return 1 if failed else 0


def render_rules_markdown() -> str:
    """The checked-in ``docs/lint-rules.md`` document, regenerated."""
    lines = [
        "# HLS-compatibility lint rules",
        "",
        "Generated by `python -m repro lint rules`; do not edit by hand.",
        "Codes are stable and append-only.  `error` rules mirror what the",
        "strict HLS frontend rejects outright; `warning` rules encode",
        "conventions that cost directives or analysis precision.  The",
        "*Backends* column scopes a rule to specific synthesis backends",
        "(`repro.backends` registry ids); `all` rules are backend-neutral.",
        "",
        "| Code | Name | Severity | Backends | Description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rule in all_rules():
        backends = ", ".join(rule.backends) if rule.backends else "all"
        lines.append(
            f"| {rule.code} | {rule.name} | {rule.severity} | {backends} | "
            f"{rule.description} |"
        )
    lines.append("")
    return "\n".join(lines)


def _cmd_rules(args: argparse.Namespace) -> int:
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "code": r.code,
                        "name": r.name,
                        "severity": r.severity,
                        "backends": list(r.backends) if r.backends else None,
                        "description": r.description,
                    }
                    for r in all_rules()
                ],
                indent=2,
            )
        )
    else:
        print(render_rules_markdown(), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from ..diagnostics.errors import CompilationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: unknown rule {exc}", file=sys.stderr)
        return 2
    except CompilationError as exc:
        code = getattr(exc, "code", "REPRO-E000")
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 2
