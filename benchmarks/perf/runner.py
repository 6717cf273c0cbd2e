"""The parent process: one fresh child per workload, set-up timed from
outside, results printed, written and summarised on the last line.

Nothing here imports ``repro``: a checkout without ``src/repro`` fails
fast, before any child starts.
"""

from __future__ import annotations

import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List

from .metrics import END_TO_END, ERROR_RATE, PER_LAYER, entry, median

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PACKAGE_DIR))
RESULTS_DIR = os.path.join(PACKAGE_DIR, "results")
WORK_DIR = os.path.join(PACKAGE_DIR, ".work")

#: Why each workload exists (BENCHMARK.json carries the same text).
WORKLOADS = {
    "verify_small": "paper evaluation path: SMALL kernels with the equivalence "
    "check, where the IR interpreter dominates",
    "compile_mini": "MINI compiles on both backends without equivalence: every "
    "pass and backend, no interpreter",
    "daemon_mini": "one client against the compile daemon: memory-tier hits "
    "plus one write-through miss every 20 requests",
    "dse_mini": "budgeted DSE over both backends: cold sweeps fill the disk "
    "cache, warm sweeps read it back",
}

#: Set-up is timed this many times per run (extra children that only set
#: up, plus the measuring child); ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Wall-clock budget of one workload, children included.
WORKLOAD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def _host() -> Dict[str, object]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), "",
            )
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _child(args, workload: str, deadline: float, setup_only: bool,
           result_path: str) -> float:
    """Run one child; returns its set-up seconds (spawn to READY)."""
    command = [
        sys.executable, "-m", "benchmarks.perf", "child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", result_path, "--results-dir", args.results_dir,
        "--expected", args.expected,
    ]
    if args.kernels:
        command += ["--kernels", ",".join(args.kernels)]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    # A session of its own, so a child that must be killed takes the
    # daemon it may have started with it.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select(
            [proc.stdout], [], [], max(0.0, deadline - time.monotonic())
        )
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchmarkError(f"{workload}: child failed during set-up")
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: child exceeded its time budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: child exited with {proc.returncode}")
    return setup


def run_workload(args, workload: str) -> Dict:
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    os.makedirs(WORK_DIR, exist_ok=True)
    result_path = os.path.join(WORK_DIR, f"result-{os.getpid()}-{workload}.json")
    setups = [
        _child(args, workload, deadline, True, result_path)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    setups.append(_child(args, workload, deadline, False, result_path))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.unlink(result_path)
    result["end_to_end"]["setup_s"] = entry(median(setups), "s", setups)
    result[ERROR_RATE] = result["failed"] / max(result["attempted"], 1)
    return result


def _render(workload: str, result: Dict, trace: bool) -> str:
    lines = [
        f"== {workload}: seed {result['seed']}, {result['rounds']} round(s)"
        + (f" + {result['traced_rounds']} traced" if trace else "")
        + f", {result['attempted']} checked, {result['failed']} failed, "
        f"{ERROR_RATE} {result[ERROR_RATE]:.4g}"
    ]
    sections = [("end_to_end", END_TO_END)] + ([("per_layer", PER_LAYER)] if trace else [])
    for section, table in sections:
        for name in table:
            value = result[section][name]
            lines.append(f"  {name:<36}{value['value']:>14.6g} {value['unit']}")
    if trace:
        info = result["trace"]
        lines.append(
            f"  trace: {info['spans']} spans, layer self time covers "
            f"{info['coverage']:.1%} of {info['traced_wall_s']:.2f} s traced wall"
        )
    lines.extend(f"  problem: {p}" for p in result["problems"])
    return "\n".join(lines)


def result_path(args) -> str:
    label = args.workload or "all"
    trace = "-trace" if args.trace else ""
    return os.path.join(args.results_dir, f"run-{label}-seed{args.seed}{trace}.json")


def run(args) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    workloads: List[str] = [args.workload] if args.workload else list(WORKLOADS)
    os.makedirs(args.results_dir, exist_ok=True)
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "host": _host(),
        "workloads": {},
    }
    try:
        for workload in workloads:
            result = run_workload(args, workload)
            doc["workloads"][workload] = result
            print(_render(workload, result, bool(args.trace)), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = result_path(args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"result written to {out}")
    print(json.dumps(_summary(doc, bool(args.trace))))
    return 0


def _summary(doc: Dict, trace: bool) -> Dict:
    """The last stdout line: correctness plus the end-to-end (or, traced,
    per-layer) metrics; metric names get a ``<workload>/`` prefix when
    the run covered several workloads."""
    runs = doc["workloads"]
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    section = "per_layer" if trace else "end_to_end"
    metrics: Dict[str, dict] = {}
    for workload, result in runs.items():
        prefix = f"{workload}/" if len(runs) > 1 else ""
        for name, value in result[section].items():
            metrics[prefix + name] = {"value": value["value"], "unit": value["unit"]}
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
