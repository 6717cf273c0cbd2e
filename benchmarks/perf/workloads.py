"""The four workloads and the child process that measures one of them.

Every workload is single-process, closed-loop, ``jobs=1``, with at most
one client connection, so on a 2-core host the numbers measure the
program, not the scheduler.  A run is a fixed number of *rounds* (from
``--seconds`` and the nominal round cost below, so parent and change do
the same work); each round covers the workload's whole request set in a
seeded order, so every seed measures the same mix.

The child prints ``READY`` on stdout when set-up is done (the parent
times set-up up to that line) and writes its result JSON to
``--result``.  With ``--trace 1`` it follows the untraced rounds with
:data:`TRACED_ROUNDS` rounds through :class:`~.layers.TracedService`.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.dse import explore
from repro.service import CompilationService, CompileRequest, DaemonClient
from repro.service.daemon import CompileDaemon, parse_address
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    report_from_wire,
    report_to_wire,
    request_to_wire,
    validate_response,
)
from repro.workloads.suite import SUITE_SIZES

from . import expected as expected_mod
from .layers import WRAPPER_SPAN, TracedService
from .metrics import (
    END_TO_END,
    PER_LAYER,
    RECORDED_METRICS,
    SPAN_METRICS,
    entry,
    median,
    percentile,
)
from .runner import WORK_DIR
from .spans import SpanRecorder

CONFIGS = ("baseline", "optimized")
BACKENDS = ("static", "dataflow")

#: Nominal seconds per round on the reference host (README); a run does
#: ``round(seconds / ROUND_SECONDS)`` rounds, at least one.
ROUND_SECONDS = {
    "verify_small": 7.0,
    "compile_mini": 1.6,
    "daemon_mini": 4.5,
    "dse_mini": 6.0,
}

#: Traced rounds appended by ``--trace 1`` (after at least two untraced
#: rounds, which the RSS-growth figure needs).
TRACED_ROUNDS = 2

#: DSE cells: (kernel, space, strategy, compile budget).
DSE_CELLS = (
    ("trmm", "wide", "exhaustive", None),
    ("gemm", "default", "halving", 15),
    ("atax", "default", "halving", 15),
    ("doitgen", "default", "halving", 12),
)
DSE_WARM_PASSES = 3

#: Daemon requests per key per round; the last of each group of this
#: many carries a fresh request seed and therefore misses.
DAEMON_REPEATS = 20

#: The traced daemon client's per-request wrapper span (like
#: ``WRAPPER_SPAN``, its self time is not a layer's).
DAEMON_REQUEST_SPAN = "service.daemon.request"


def cell_id(cell) -> str:
    kernel, space, strategy, budget = cell
    return f"{kernel}/{space}/{strategy}" + (f"/{budget}" if budget else "")


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


@dataclass
class Round:
    """What one round measured (seconds throughout)."""

    wall: float = 0.0
    # (request type, seconds) per timed request; see _end_to_end.
    latencies: List[Tuple[object, float]] = field(default_factory=list)
    work: int = 0  # cold requests (DSE: design points) completed
    work_seconds: float = 0.0
    hits: int = 0  # requests (DSE: design points) served from cache
    hit_seconds: float = 0.0


class Tally:
    """Attempts and failures; a failure is any wrong or missing output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:2])


@dataclass
class Context:
    seed: int
    work_dir: str
    kernels: List[str]
    expected: Dict
    trace: bool
    recorder: SpanRecorder = field(default_factory=SpanRecorder)
    tally: Tally = field(default_factory=Tally)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def _warm_up(ctx: Context) -> None:
    """One compile per backend, so lazy imports and first-call caches are
    paid in set-up, not in the first timed request."""
    service = CompilationService(cache_dir=ctx.fresh_dir("warm-up"))
    for backend in BACKENDS:
        service.compile_one(
            ctx.kernels[0], "baseline", size_class="MINI",
            check_equivalence=False, backend=backend,
        )


def _signature(row) -> Tuple:
    """What must not differ between two computations of one request."""
    return (
        expected_mod.row_outputs(row),
        row.functionally_equivalent,
        row.max_abs_error,
        json.dumps(row.lint, sort_keys=True),
    )


class Workload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.signatures: Dict[str, Tuple] = {}

    def setup(self) -> None:
        _warm_up(self.ctx)

    def teardown(self) -> None:
        pass

    def run_round(self, index: int, traced: bool) -> Round:
        raise NotImplementedError

    def check_row(self, key: str, row, status: str) -> List[str]:
        """Expected outputs, plus bit-identity with every earlier row of
        the same request (traced and untraced paths alike)."""
        problems = expected_mod.row_problems(self.ctx.expected, key, row, status)
        seen = self.signatures.setdefault(key, _signature(row))
        if seen != _signature(row):
            problems.append(f"{key}: differs from an earlier computation")
        return problems

    def layer_metrics(self, rounds: List[Round]) -> Dict[str, float]:
        """Workload-specific per-layer values from the untraced rounds."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ServiceWorkload(Workload):
    """``CompilationService.compile_one`` on a fresh cache per round: a
    cold pass over every request, then ``warm_passes`` passes of
    disk-tier hits (enough of them that a round's hit time is not a few
    tens of milliseconds at the mercy of one scheduling hiccup)."""

    size = ""
    backends: Tuple[str, ...] = ()
    equivalence = False
    warm_passes = 1

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.requests = [
            (kernel, config, backend)
            for kernel in ctx.kernels
            for config in CONFIGS
            for backend in self.backends
        ]

    def run_round(self, index: int, traced: bool) -> Round:
        ctx = self.ctx
        cache_dir = ctx.fresh_dir(f"round{index}")
        if ctx.trace:
            service = TracedService(ctx.recorder, cache_dir=cache_dir)
        else:
            service = CompilationService(cache_dir=cache_dir)
        rnd = Round()
        try:
            rnd.work, rnd.work_seconds = self._pass(service, "miss", rnd.latencies)
            for _ in range(self.warm_passes):
                hits, seconds = self._pass(service, "hit", [])
                rnd.hits += hits
                rnd.hit_seconds += seconds
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        rnd.wall = rnd.work_seconds + rnd.hit_seconds
        return rnd

    def _pass(self, service, status: str, latencies: list):
        ctx = self.ctx
        done = 0
        start = time.perf_counter()
        for kernel, config, backend in ctx.rng.sample(self.requests, len(self.requests)):
            key = expected_mod.row_key(kernel, config, self.size, backend)
            sent = time.perf_counter()
            try:
                row = service.compile_one(
                    kernel, config, size_class=self.size,
                    check_equivalence=self.equivalence, seed=ctx.seed,
                    backend=backend,
                )
            except Exception as exc:  # a failed request is a counted failure
                ctx.tally.add([f"{key}: {type(exc).__name__}: {exc}"])
                continue
            latencies.append((key, time.perf_counter() - sent))
            done += 1
            ctx.tally.add(self.check_row(key, row, status))
        return done, time.perf_counter() - start


class VerifySmall(ServiceWorkload):
    size = "SMALL"
    backends = ("static",)
    equivalence = True
    warm_passes = 10


class CompileMini(ServiceWorkload):
    size = "MINI"
    backends = BACKENDS
    equivalence = False
    warm_passes = 3


class DaemonMini(Workload):
    """One :class:`DaemonClient` connection to ``python -m repro serve
    --jobs 1`` primed with two keys per kernel (baseline on the static
    backend, optimized on the dataflow backend).

    With ``--trace 1`` the daemon runs in-process with a
    :class:`TracedService`, so its spans share the client's clock and
    request ids, and the client speaks the protocol one public call at a
    time instead of through :class:`DaemonClient`.
    """

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.keys = [
            (kernel, config, backend)
            for kernel in ctx.kernels
            for config, backend in zip(CONFIGS, BACKENDS)
        ]
        self.fresh_seeds = count(ctx.seed + 1)
        self.process: Optional[subprocess.Popen] = None
        self.daemon: Optional[CompileDaemon] = None
        self.client: Optional[DaemonClient] = None
        self.sock = None
        self.reader = None
        self.counters: List[Dict[str, int]] = []

    def _request(self, key, seed: int) -> CompileRequest:
        kernel, config, backend = key
        return CompileRequest(
            kernel=kernel, config=config, size_class="MINI",
            check_equivalence=False, seed=seed, backend=backend,
        )

    def setup(self) -> None:
        ctx = self.ctx
        cache_dir = ctx.fresh_dir("daemon-cache")
        if ctx.trace:
            self.daemon = CompileDaemon(cache_dir=cache_dir, jobs=1)
            self.daemon.service = TracedService(
                ctx.recorder, cache_dir=cache_dir, jobs=1,
                engine=self.daemon.engine, mem_entries=256,
            )
            address = self.daemon.start()
            self.sock = socket.create_connection(parse_address(address)[1])
            self.reader = self.sock.makefile("rb")
        else:
            address = self._spawn(cache_dir)
        self.client = DaemonClient(address).connect()
        self.client.ping()
        for key in self.keys:
            report = self.client.compile_batch([self._request(key, ctx.seed)])
            row = report.comparisons[0] if report.comparisons else None
            if row is None or row.cache_status != "miss":
                raise RuntimeError(f"priming {key} did not compile")

    def _spawn(self, cache_dir: str) -> str:
        address_file = os.path.join(self.ctx.work_dir, "daemon.address")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "--cache-dir", cache_dir,
                "serve", "--jobs", "1", "--address", "127.0.0.1:0",
                "--address-file", address_file,
            ],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            if os.path.exists(address_file):
                with open(address_file, encoding="utf-8") as fh:
                    text = fh.read()
                if text.endswith("\n"):
                    return text.strip()
            time.sleep(0.01)
        raise RuntimeError("daemon did not publish its address within 60 s")

    def teardown(self) -> None:
        for stream in (self.reader, self.sock):
            if stream is not None:
                stream.close()
        if self.client is None:
            return
        address = parse_address(self.client.address)[1]
        try:
            self.client.shutdown()
        except OSError:
            pass
        self.client.close()
        if self.daemon is not None:
            stopper = threading.Thread(target=self.daemon.stop)
            stopper.start()
            running = stopper.is_alive
        else:
            running = lambda: self.process.poll() is None  # noqa: E731
        # The daemon's accept thread sleeps in accept() until a connection
        # arrives, so connect until it notices the shutdown instead of
        # waiting out its join timeout.
        deadline = time.monotonic() + 30
        while running() and time.monotonic() < deadline:
            try:
                socket.create_connection(address, timeout=1).close()
            except OSError:
                pass
            time.sleep(0.02)
        if self.daemon is not None:
            stopper.join()
        else:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()

    def peak_rss_mb(self) -> float:
        if self.process is None:  # in-process daemon (traced run)
            return super().peak_rss_mb()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def _schedule(self) -> List[Tuple[tuple, bool]]:
        """Every key ``DAEMON_REPEATS`` times; each group of that many
        requests ends with one miss, and every key misses once."""
        rng = self.ctx.rng
        misses = iter(rng.sample(self.keys, len(self.keys)))
        hits = [key for key in self.keys for _ in range(DAEMON_REPEATS - 1)]
        rng.shuffle(hits)
        hit_iter = iter(hits)
        return [
            (next(misses), True)
            if position % DAEMON_REPEATS == DAEMON_REPEATS - 1
            else (next(hit_iter), False)
            for position in range(DAEMON_REPEATS * len(self.keys))
        ]

    def run_round(self, index: int, traced: bool) -> Round:
        ctx = self.ctx
        schedule = self._schedule()
        before = self.client.stats()["counters"]
        send = self._traced_send if traced else self._send
        rnd = Round()
        misses = 0
        start = time.perf_counter()
        for key, miss in schedule:
            seed = next(self.fresh_seeds) if miss else ctx.seed
            request = self._request(key, seed)
            sent = time.perf_counter()
            try:
                report = send(request)
            except Exception as exc:  # a failed request is a counted failure
                ctx.tally.add([f"{key}: {type(exc).__name__}: {exc}"])
                continue
            elapsed = time.perf_counter() - sent
            rnd.latencies.append(((key, miss), elapsed))
            # Classify by the row's own cache_status: SuiteReport.cache_stats
            # can disagree under concurrent clients (see README).
            ok = report.comparisons and report.outcomes[0].ok
            row = report.comparisons[0] if ok else None
            status = "miss" if miss else "hit"
            if row is None:
                ctx.tally.add([f"{key}: no comparison returned"])
                continue
            if row.cache_status == "hit":
                rnd.hits += 1
                rnd.hit_seconds += elapsed
            misses += row.cache_status == "miss"
            ctx.tally.add(
                self.check_row(expected_mod.row_key(*key[:2], "MINI", key[2]), row, status)
            )
        rnd.work_seconds = rnd.wall = time.perf_counter() - start
        rnd.work = len(rnd.latencies)
        after = self.client.stats()["counters"]
        delta = {
            name: after.get(group, {}).get(counter, 0)
            - before.get(group, {}).get(counter, 0)
            for name, (group, counter) in (
                ("compiles", ("service", "compiles")),
                ("mem_hits", ("cache", "mem_hits")),
            )
        }
        self.counters.append({**delta, "requests": len(schedule)})
        # Exactly one miss per key per round, each a real compile; every
        # other request a memory-tier hit.
        ctx.tally.add(
            []
            if misses == len(self.keys) == delta["compiles"]
            and delta["mem_hits"] == rnd.hits == len(schedule) - misses
            else [f"round {index}: {misses} misses, counters {delta}"]
        )
        return rnd

    def _send(self, request):
        return self.client.compile_batch([request])

    def _traced_send(self, request):
        """``DaemonClient.compile_batch`` one protocol call at a time."""
        rec = self.ctx.recorder
        with rec.span(DAEMON_REQUEST_SPAN, new_request=True):
            with rec.span("service.protocol.request_encode"):
                frame = encode_line(
                    {
                        "v": PROTOCOL_VERSION,
                        "id": "bench",
                        "op": "compile",
                        "requests": [request_to_wire(request)],
                        "policy": None,
                        "span": "daemon-batch",
                    }
                )
            first_inner = len(rec.spans)
            with rec.span("service.daemon.roundtrip") as roundtrip:
                rec.anchor = rec.current()
                try:
                    self.sock.sendall(frame)
                    raw = self.reader.readline()
                finally:
                    rec.anchor = None
            with rec.span("service.protocol.decode"):
                report = report_from_wire(validate_response(decode_line(raw))["report"])
            rec.record("service.protocol.response_bytes", len(raw))
            row = report.comparisons[0] if report.comparisons else None
            if row is None or row.cache_status != "hit":
                rec.rename(roundtrip, "service.daemon.roundtrip_miss")
                return report
            rec.rename(roundtrip, "service.daemon.roundtrip_hit")
            # The daemon's response encode, mirrored on the decoded report.
            with rec.span("service.protocol.encode") as encode:
                encode_line(
                    {
                        "v": PROTOCOL_VERSION, "id": "bench", "op": "compile",
                        "status": "ok", "report": report_to_wire(report),
                    }
                )
            explained = sum(
                end - start
                for name, start, end, _, _ in rec.spans[first_inner:encode + 1]
                if name in ("service.cache_key", "service.tiers.mem_load",
                            "service.protocol.encode")
            )
            _, start, end, _, _ = rec.spans[roundtrip]
            rec.record("service.daemon.unexplained_hit_ms", (end - start - explained) * 1e3)
        return report

    def layer_metrics(self, rounds: List[Round]) -> Dict[str, float]:
        compiles = sum(c["compiles"] for c in self.counters)
        mem_hits = sum(c["mem_hits"] for c in self.counters)
        requests = sum(c["requests"] for c in self.counters)
        return {
            "service.daemon.compiles": compiles,
            "service.daemon.mem_hits": mem_hits,
            "service.daemon.hit_ratio": mem_hits / requests if requests else 0.0,
        }


class _TimedService(CompilationService):
    """Times every ``compile_one`` the explorer makes: one design point."""

    def __init__(self, latencies: list, **kwargs) -> None:
        super().__init__(**kwargs)
        self.latencies = latencies

    def compile_one(self, kernel, config="baseline", **kwargs):
        start = time.perf_counter()
        try:
            return super().compile_one(kernel, config, **kwargs)
        finally:
            point = (kernel, getattr(config, "name", config), kwargs.get("backend"))
            self.latencies.append((point, time.perf_counter() - start))


class DseMini(Workload):
    """What ``repro.api.explore(..., cache_dir=..., jobs=1)`` does — a
    fresh service on the round's cache per call — over both backends on
    a fresh cache per round: each cell once cold, then
    :data:`DSE_WARM_PASSES` times warm.  A request is one design point:
    latencies are per point over the cold passes, throughputs are points
    per second of explore wall."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.cells = [cell for cell in DSE_CELLS if cell[0] in ctx.kernels]
        self.cold_reports: List[Tuple[object, float]] = []

    def run_round(self, index: int, traced: bool) -> Round:
        ctx = self.ctx
        cache_dir = ctx.fresh_dir(f"round{index}")
        rnd = Round()
        try:
            for warm in [False] + [True] * DSE_WARM_PASSES:
                for cell in ctx.rng.sample(self.cells, len(self.cells)):
                    sent = time.perf_counter()
                    try:
                        report = self._explore(cell, cache_dir, traced, warm, rnd)
                    except Exception as exc:  # a failed request is a counted failure
                        ctx.tally.add([f"{cell_id(cell)}: {type(exc).__name__}: {exc}"])
                        continue
                    elapsed = time.perf_counter() - sent
                    points = len(report.points)
                    if warm:
                        rnd.hits += points
                        rnd.hit_seconds += elapsed
                    else:
                        rnd.work += points
                        rnd.work_seconds += elapsed
                        if not traced:
                            self.cold_reports.append((report, elapsed))
                    ctx.tally.add(self._check(cell, report, warm))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        rnd.wall = rnd.work_seconds + rnd.hit_seconds
        return rnd

    def _explore(self, cell, cache_dir: str, traced: bool, warm: bool, rnd: Round):
        kernel, space, strategy, budget = cell

        def run(service):
            return explore(
                kernel, size_class="MINI", space=space, service=service,
                strategy=strategy, budget=budget, backends=list(BACKENDS),
            )

        if not traced:
            latencies = [] if warm else rnd.latencies
            return run(_TimedService(latencies, cache_dir=cache_dir, jobs=1))
        name = "dse.warm_explore" if warm else "dse.cold_explore"
        with self.ctx.recorder.span(name, new_request=True):
            return run(TracedService(self.ctx.recorder, cache_dir=cache_dir, jobs=1))

    def _check(self, cell, report, warm: bool) -> List[str]:
        problems = []
        want = self.ctx.expected["frontiers"].get(cell_id(cell))
        if expected_mod.frontier_outputs(report) != want:
            problems.append(f"{cell_id(cell)}: frontier differs from expected")
        if report.failed:
            problems.append(f"{cell_id(cell)}: {len(report.failed)} failed points")
        misses = 0 if warm else len(report.points)
        if report.cache_misses != misses:
            problems.append(
                f"{cell_id(cell)}: {report.cache_misses} cache misses, want {misses}"
            )
        return problems

    def layer_metrics(self, rounds: List[Round]) -> Dict[str, float]:
        reports = [report for report, _ in self.cold_reports]
        wall = sum(elapsed for _, elapsed in self.cold_reports)
        points = sum(len(r.points) for r in reports)
        compile_seconds = sum(p.compile_seconds for r in reports for p in r.points)
        passes = len(rounds) or 1
        return {
            "dse.overhead_ratio": 1 - compile_seconds / wall if wall else 0.0,
            "dse.points_visited": sum(r.visited for r in reports) / passes,
            "dse.frontier_ratio": (
                sum(len(r.frontier) for r in reports) / points if points else 0.0
            ),
        }


WORKLOADS = {
    "verify_small": VerifySmall,
    "compile_mini": CompileMini,
    "daemon_mini": DaemonMini,
    "dse_mini": DseMini,
}


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _typical(latencies) -> List[Tuple[float, int]]:
    """(median seconds, request count) per request type."""
    by_type: Dict[object, List[float]] = {}
    for kind, seconds in latencies:
        by_type.setdefault(kind, []).append(seconds)
    return [(median(v), len(v)) for v in by_type.values()]


def _end_to_end(rounds: List[Round], peak_rss_mb: float) -> Dict[str, dict]:
    """Throughputs are the median over rounds.  Latency percentiles are
    taken over request types, each at its median latency over the run and
    weighted by how often it was sent, so a burst of host noise that
    slows a minority of one type's requests cannot move them.  Samples
    are the per-round values (``compare`` reads their spread)."""
    rates = {
        "throughput_rps": [r.work / r.work_seconds for r in rounds if r.work_seconds],
        "hit_throughput_rps": [r.hits / r.hit_seconds for r in rounds if r.hit_seconds],
    }
    out = {
        name: entry(median(values), END_TO_END[name].unit, values)
        for name, values in rates.items()
    }
    typical = _typical(x for r in rounds for x in r.latencies)
    for name, fraction in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        out[f"latency_{name}_ms"] = entry(
            percentile(typical, fraction) * 1e3,
            "ms",
            [percentile(_typical(r.latencies), fraction) * 1e3 for r in rounds],
        )
    out["peak_rss_mb"] = entry(peak_rss_mb, END_TO_END["peak_rss_mb"].unit)
    return out


def _flow_stage_table(recorder: SpanRecorder, seed: int) -> str:
    """Per-kernel medians of the traced compiles in Fig. 4's layout."""
    stages: Dict[str, Dict[str, List[float]]] = {}
    by_request: Dict[int, List[list]] = {}
    for span in recorder.spans:
        by_request.setdefault(span[4], []).append(span)
    columns = ("lower", "adaptor", "synth(a)", "codegen", "c-front", "synth(c)")
    for request, spans in by_request.items():
        label = recorder.labels.get(request)
        if label is None or not any(s[0] == "mlir.lower" for s in spans):
            continue

        def ms(*names):
            return sum(e - s for n, s, e, _, _ in spans if n in names) * 1e3

        synths = [(e - s) * 1e3 for n, s, e, _, _ in spans if n.startswith("backends.")]
        row = dict(
            zip(
                columns,
                (
                    ms("mlir.lower", "mlir.to_llvm"),
                    ms("adaptor.run", "lint.run"),
                    synths[0],
                    ms("hlscpp.codegen"),
                    ms("hlscpp.frontend"),
                    synths[1],
                ),
            )
        )
        per_kernel = stages.setdefault(label.split("/")[0], {c: [] for c in columns})
        for column, value in row.items():
            per_kernel[column].append(value)
    samples = max((len(v["lower"]) for v in stages.values()), default=0)
    lines = [
        "Fig. 4 [reconstructed]: flow compile time (ms): adaptor flow vs C++ flow",
        f"median of {samples} traced compiles per kernel (verify_small: SMALL, "
        f"baseline+optimized, static backend, seed {seed})",
        "",
        f"{'kernel':<11}" + "".join(f"{c:<10}" for c in columns),
        "-" * (11 + 10 * len(columns)),
    ]
    for kernel in SUITE_SIZES["SMALL"]:
        if kernel in stages:
            lines.append(
                f"{kernel:<11}"
                + "".join(f"{median(stages[kernel][c]):<10.1f}" for c in columns)
            )
    return "\n".join(lines) + "\n"


def _per_layer(workload: Workload, untraced: List[Round], rss: List[int],
               traced: List[Round]) -> Dict[str, dict]:
    rec = workload.ctx.recorder
    values: Dict[str, float] = {}
    for metric, span_name in SPAN_METRICS.items():
        values[metric] = median(list(rec.per_request(span_name).values())) * 1e3
    for metric in RECORDED_METRICS:
        values[metric] = median(rec.per_request_values(metric))
    interp_seconds = sum(rec.per_request("interp.run").values())
    steps = sum(rec.per_request_values("interp.steps"))
    values["interp.steps_per_s"] = steps / interp_seconds if interp_seconds else 0.0
    # Per unit of throughput work: a cold request, or a DSE design point.
    later_work = sum(r.work for r in untraced[1:])
    values["proc.rss_growth_kb_per_request"] = (
        (rss[-1] - rss[0]) / 1024 / later_work if later_work else 0.0
    )
    values["trace.overhead_ratio"] = median([r.wall for r in traced]) / median(
        [r.wall for r in untraced]
    )
    values.update(workload.layer_metrics(untraced))
    return {name: entry(values.get(name, 0.0), m.unit) for name, m in PER_LAYER.items()}


def child_main(args) -> int:
    """Set up, print READY, measure, write the result JSON."""
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the child and the daemon it may start: a closed loop
        # with one client never runs both at once, and cross-CPU wake-ups
        # were the largest source of run-to-run spread on a 2-vCPU host.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_dir = os.path.join(WORK_DIR, f"child-{os.getpid()}")
    os.makedirs(work_dir)
    ctx = Context(
        seed=args.seed,
        work_dir=work_dir,
        kernels=args.kernels or list(SUITE_SIZES["MINI"]),
        expected=expected_mod.load(args.expected),
        trace=bool(args.trace),
    )
    workload = WORKLOADS[args.workload](ctx)
    untraced: List[Round] = []
    traced: List[Round] = []
    rss: List[int] = []
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        rounds = rounds_for(args.workload, args.seconds)
        for index in range(max(rounds, 2) if ctx.trace else rounds):
            untraced.append(workload.run_round(index, traced=False))
            gc.collect()
            rss.append(_rss_bytes())
        ctx.recorder.active = ctx.trace
        for index in range(TRACED_ROUNDS if ctx.trace else 0):
            traced.append(workload.run_round(len(untraced) + index, traced=True))
        ctx.recorder.active = False
    finally:
        workload.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "problems": ctx.tally.problems,
        "end_to_end": _end_to_end(untraced, workload.peak_rss_mb()),
    }
    if ctx.trace:
        result["per_layer"] = _per_layer(workload, untraced, rss, traced)
        traced_wall = sum(r.wall for r in traced)
        result["trace"] = {
            "spans": len(ctx.recorder.spans),
            "traced_wall_s": traced_wall,
            "coverage": ctx.recorder.coverage(
                traced_wall, (WRAPPER_SPAN, DAEMON_REQUEST_SPAN)
            ),
        }
        # Paths relative to the checkout root (the child's working directory).
        path = os.path.join(args.results_dir, f"spans-{args.workload}-seed{args.seed}.json")
        ctx.recorder.dump(path)
        result["trace"]["spans_file"] = os.path.relpath(path)
        if args.workload == "verify_small":
            path = os.path.join(args.results_dir, "flow_stage_ms.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_flow_stage_table(ctx.recorder, args.seed))
            result["trace"]["flow_stage_file"] = os.path.relpath(path)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0
