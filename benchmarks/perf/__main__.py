"""Command line: ``python -m benchmarks.perf run|compare``.

    python -m benchmarks.perf run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
    python -m benchmarks.perf run --update-expected
    python -m benchmarks.perf compare A.json B.json

``child`` is the per-workload process ``run`` starts; it is not meant to
be called by hand.
"""

from __future__ import annotations

import argparse
import os
import sys

from .runner import RESULTS_DIR, WORKLOADS


def _kernels(text: str):
    return [k for k in text.split(",") if k]


def _common(parser: argparse.ArgumentParser) -> None:
    from .expected import EXPECTED_PATH

    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="nominal measured time per workload; sets the round count",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: add traced rounds and report per-layer metrics",
    )
    parser.add_argument(
        "--kernels", type=_kernels, default=None,
        help="comma-separated kernel subset (default: all 15)",
    )
    parser.add_argument(
        "--expected", default=EXPECTED_PATH, help="expected-outputs JSON"
    )
    parser.add_argument("--results-dir", default=RESULTS_DIR)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads")
    _common(run)
    run.add_argument(
        "--update-expected", action="store_true",
        help="regenerate expected.json from cold compiles and exit",
    )
    compare = sub.add_parser("compare", help="compare two result JSONs")
    compare.add_argument("a")
    compare.add_argument("b")
    child = sub.add_parser("child")
    _common(child)
    child.add_argument("--result", required=True)
    child.add_argument("--setup-only", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        from .compare import compare

        return compare(args.a, args.b)
    if args.command == "child":
        from .workloads import child_main

        return child_main(args)
    if args.update_expected:
        from .expected import generate
        from .runner import ROOT

        sys.path.insert(0, os.path.join(ROOT, "src"))
        generate(args.expected)
        print(f"wrote {args.expected}")
        return 0
    from .runner import run

    return run(args)


if __name__ == "__main__":
    sys.exit(main())
