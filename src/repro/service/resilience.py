"""Failure isolation for batch compilation.

The service's original batch loop had all-or-nothing semantics: one
crashed or hung worker aborted :meth:`CompilationService.compile_batch`
and discarded every completed comparison.  This module gives batches a
:class:`FailurePolicy` instead:

* ``fail-fast`` — the historical behaviour, minus the waste: the first
  failure still raises, but outstanding futures are cancelled and the
  worker pool torn down so doomed workers stop burning CPU;
* ``continue`` — every request runs to completion (or failure); the
  batch returns the survivors plus a :class:`RequestOutcome` per request;
* ``retry`` — like ``continue`` with bounded re-execution under a
  deterministic (seeded by nothing — exponential and jitter-free)
  backoff, so transient worker deaths become ``retried-then-ok``.

On top of the policy the :class:`ResilientExecutor` adds per-request
wall-clock deadlines with *hung-worker detection*: a worker past its
deadline cannot be cancelled through :mod:`concurrent.futures`, so the
executor terminates the whole pool, re-submits the innocent in-flight
requests (their attempt is not consumed), and charges the timed-out
request an attempt.  Repeated pool-level failures (hangs, broken pools)
trip a circuit breaker that degrades the rest of the batch to serial
in-process execution — slower, but immune to pool pathology.

Everything is counted through :mod:`repro.observability`::

    service.retries    resubmissions after a failed/timed-out attempt
    service.timeouts   attempts that exceeded the per-request deadline
    service.failures   attempts that raised (timeouts counted separately)
    service.degraded   circuit-breaker trips to serial execution

Timeout enforcement needs worker processes.  Requests the executor runs
in this process (one worker, or an open circuit) still get the
``continue``/``retry`` semantics and the backoff, but a hung in-process
compile cannot be pre-empted.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..diagnostics.engine import DiagnosticEngine
from ..diagnostics.errors import CompilationError, PipelineConfigError, ServiceError
from ..observability import get_statistics

__all__ = [
    "FAILURE_MODES",
    "OUTCOME_STATUSES",
    "FailurePolicy",
    "RequestOutcome",
    "outcome_counts",
    "ResilientExecutor",
]

FAILURE_MODES = ("fail-fast", "continue", "retry")

OUTCOME_STATUSES = ("ok", "retried-then-ok", "failed", "timed-out")


@dataclass(frozen=True)
class FailurePolicy:
    """How a batch treats worker failures.

    ``max_attempts`` bounds executions per request (``None`` resolves to
    2 under ``retry``, 1 otherwise).  ``timeout`` is the per-request
    wall-clock deadline in seconds (``None`` = unbounded; enforced only
    when worker processes are in play).  Backoff before attempt *n+1* is
    ``backoff_base * backoff_factor**(n-1)`` — deterministic and
    jitter-free, so two runs of the same failing batch retry on the same
    schedule.  ``circuit_threshold`` pool-level failures (hung-worker
    pool replacements, broken pools) open the circuit breaker.
    """

    mode: str = "fail-fast"
    max_attempts: Optional[int] = None
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    circuit_threshold: int = 2

    def __post_init__(self):
        if self.mode not in FAILURE_MODES:
            raise PipelineConfigError(
                f"unknown failure-policy mode {self.mode!r}; "
                f"valid: {FAILURE_MODES}"
            )
        if self.max_attempts is not None and self.max_attempts < 1:
            raise PipelineConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise PipelineConfigError(
                f"timeout must be positive, got {self.timeout}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise PipelineConfigError(
                f"backoff must be non-negative with factor >= 1, got "
                f"base={self.backoff_base} factor={self.backoff_factor}"
            )
        if self.circuit_threshold < 1:
            raise PipelineConfigError(
                f"circuit_threshold must be >= 1, got {self.circuit_threshold}"
            )

    @property
    def attempts(self) -> int:
        """The resolved per-request attempt bound."""
        if self.max_attempts is not None:
            return self.max_attempts
        return 2 if self.mode == "retry" else 1

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before re-running after failed attempt ``attempt``."""
        return self.backoff_base * self.backoff_factor ** max(0, attempt - 1)

    def describe(self) -> str:
        parts = [self.mode]
        if self.mode == "retry":
            parts.append(f"attempts={self.attempts}")
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout:g}s")
        return ",".join(parts)


@dataclass
class RequestOutcome:
    """What happened to one batch request, across all its attempts.

    ``comparison_index`` points into ``SuiteReport.comparisons`` for the
    requests that produced a result (``ok`` statuses only) — the report
    stays partial-friendly: failed requests have an outcome but no row.
    """

    index: int
    kernel: str
    config: str
    status: str = "ok"
    attempts: int = 1
    seconds: float = 0.0
    error: Optional[str] = None
    error_code: Optional[str] = None
    comparison_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "retried-then-ok")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kernel": self.kernel,
            "config": self.config,
            "status": self.status,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
            "error": self.error,
            "error_code": self.error_code,
        }


def outcome_counts(outcomes: Sequence[RequestOutcome]) -> Dict[str, int]:
    """Status histogram over ``outcomes`` (every status always present)."""
    counts = {status: 0 for status in OUTCOME_STATUSES}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return counts


@dataclass
class _Inflight:
    index: int
    attempt: int
    started: float
    deadline: Optional[float]


class ResilientExecutor:
    """Run payloads under a policy, in worker processes or in this one.

    Both functions are called as ``fn(payload, attempt)``; the attempt
    number starts at 1 (the chaos injector keys on it).  ``worker_fn``
    runs in a replaceable process pool and must be a module-level
    picklable callable.  ``serial_fn`` (default: ``worker_fn``) runs in
    this process: for the whole batch when there is one worker (``jobs=1``
    or a single payload), and for the rest of it once the circuit breaker
    opens.  ``labels``/``configs`` name the requests in outcomes and
    diagnostics.

    :meth:`run` returns ``(outcomes, results)`` where ``results`` maps a
    request index to the function's return value for every request that
    succeeded.  Under ``fail-fast`` the first failure propagates: as
    raised when it happened in this process; from a pool, as the
    original :class:`CompilationError` or wrapped in
    :class:`ServiceError`, after outstanding work is cancelled and the
    pool is torn down.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any, int], Any],
        payloads: Sequence[Any],
        *,
        jobs: int,
        policy: FailurePolicy,
        labels: Optional[Sequence[str]] = None,
        configs: Optional[Sequence[str]] = None,
        serial_fn: Optional[Callable[[Any, int], Any]] = None,
        engine: Optional[DiagnosticEngine] = None,
    ):
        self.worker_fn = worker_fn
        self.payloads = list(payloads)
        self.workers = max(1, min(jobs, len(self.payloads)))
        self.policy = policy
        self.labels = list(labels) if labels else [str(i) for i in range(len(self.payloads))]
        self.configs = list(configs) if configs else ["-"] * len(self.payloads)
        self.serial_fn = serial_fn or worker_fn
        self.engine = engine or DiagnosticEngine()
        self.pool_failures = 0
        self.degraded = False
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle -----------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def _abort_pool(self) -> None:
        """Tear the pool down without waiting on hung or doomed workers."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(5)
                if process.is_alive():
                    process.kill()
            except Exception:
                pass
        # With the workers dead, join the pool's manager thread too —
        # otherwise the interpreter's own atexit hook trips over the dead
        # pool's wakeup pipe and spews "Exception ignored" noise on exit.
        try:
            pool.shutdown(wait=True)
        except Exception:
            pass

    def _close_pool(self) -> None:
        """Graceful shutdown for the clean-completion path (idle workers)."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        pool.shutdown(wait=True, cancel_futures=True)

    def _pool_failure(self, reason: str) -> None:
        """Replace a sick pool; repeated sickness opens the circuit breaker."""
        self.pool_failures += 1
        self._abort_pool()
        if self.pool_failures >= self.policy.circuit_threshold:
            self.degraded = True
            get_statistics().bump("service", "degraded")
            self.engine.warning(
                "REPRO-SVC-002",
                f"circuit breaker open after {self.pool_failures} pool "
                f"failure(s) ({reason}); degrading to serial in-process "
                f"execution",
            )
        else:
            self._pool = self._new_pool()

    # -- the outcome ledger -------------------------------------------------
    def _succeeded(self, index: int, attempt: int, started: float, value: Any) -> None:
        self._results[index] = value
        outcome = self._outcomes[index]
        outcome.attempts = attempt
        outcome.seconds += time.monotonic() - started
        outcome.status = "ok" if attempt == 1 else "retried-then-ok"
        outcome.error = None
        outcome.error_code = None

    def _failed(
        self, index: int, attempt: int, started: float,
        exc: Optional[BaseException], timed_out: bool = False,
    ) -> None:
        """Charge one failed attempt; requeue it if the policy allows."""
        policy = self.policy
        stats = get_statistics()
        outcome = self._outcomes[index]
        outcome.attempts = attempt
        outcome.seconds += time.monotonic() - started
        if timed_out:
            stats.bump("service", "timeouts")
            outcome.error = f"worker exceeded {policy.timeout:g}s deadline"
            outcome.error_code = "REPRO-SVC-003"
        else:
            stats.bump("service", "failures")
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.error_code = getattr(exc, "code", None)
        if policy.mode == "fail-fast":
            if self._pool is None:
                raise exc  # in process: propagate as raised
            self._abort_pool()
            label = self.labels[index]
            if timed_out:
                diag = self.engine.error(
                    "REPRO-SVC-003",
                    f"worker compiling {label!r} exceeded its "
                    f"{policy.timeout:g}s deadline",
                )
                raise ServiceError(diag.message, kernel=label, diagnostic=diag)
            if isinstance(exc, CompilationError):
                raise exc
            diag = self.engine.error(
                ServiceError.code,
                f"worker compiling {label!r} failed: {type(exc).__name__}: {exc}",
            )
            raise ServiceError(diag.message, kernel=label, diagnostic=diag) from exc
        if attempt < policy.attempts:
            stats.bump("service", "retries")
            self._ready_at[index] = time.monotonic() + policy.backoff_for(attempt)
            self._pending.append((index, attempt + 1))
        else:
            outcome.status = "timed-out" if timed_out else "failed"

    # -- the run loops ------------------------------------------------------
    def run(self) -> Tuple[List[RequestOutcome], Dict[int, Any]]:
        # The outcome ledger both run loops share.
        self._outcomes = [
            RequestOutcome(index=i, kernel=self.labels[i], config=self.configs[i])
            for i in range(len(self.payloads))
        ]
        self._results: Dict[int, Any] = {}
        self._pending: deque = deque((i, 1) for i in range(len(self.payloads)))
        self._ready_at: Dict[int, float] = {}
        if self.workers > 1:
            self._run_pool()
        # Everything the pool left: the whole batch for one worker, the
        # rest of it once the circuit breaker opened.
        self._run_in_process()
        return self._outcomes, self._results

    def _run_in_process(self) -> None:
        """Drain the queue in this process.  There is no worker to kill,
        so ``timeout`` cannot be enforced here: a hung compile blocks."""
        pending = self._pending
        while pending:
            index, attempt = pending.popleft()
            release = self._ready_at.pop(index, None)
            if release is not None:  # a retry owes its backoff
                time.sleep(max(0.0, release - time.monotonic()))
            started = time.monotonic()
            try:
                value = self.serial_fn(self.payloads[index], attempt)
            except Exception as exc:  # an interrupt here ends the batch
                self._failed(index, attempt, started, exc)
            else:
                self._succeeded(index, attempt, started, value)

    def _run_pool(self) -> None:
        """Run the queue through the pool until it drains or the circuit
        breaker opens."""
        policy = self.policy
        pending = self._pending
        ready_at = self._ready_at
        inflight: Dict[Future, _Inflight] = {}
        self._pool = self._new_pool()
        try:
            while (pending or inflight) and not self.degraded:
                now = time.monotonic()
                # Submit every ready request there is a worker slot for.
                # (Backed-off retries may sit behind ready work — scan,
                # don't just pop the head.)
                blocked: List[Tuple[int, int]] = []
                while pending and len(inflight) < self.workers:
                    index, attempt = pending.popleft()
                    if ready_at.get(index, 0.0) > now:
                        blocked.append((index, attempt))
                        continue
                    future = self._pool.submit(
                        self.worker_fn, self.payloads[index], attempt
                    )
                    inflight[future] = _Inflight(
                        index=index,
                        attempt=attempt,
                        started=now,
                        deadline=(
                            now + policy.timeout
                            if policy.timeout is not None
                            else None
                        ),
                    )
                pending.extendleft(reversed(blocked))
                if not inflight:
                    # Everything left is backing off; sleep to the nearest
                    # release and go around.
                    release = min(ready_at.get(i, 0.0) for i, _ in pending)
                    time.sleep(max(0.0, release - time.monotonic()))
                    continue
                deadlines = [
                    meta.deadline for meta in inflight.values()
                    if meta.deadline is not None
                ]
                releases = [
                    ready_at[i] for i, _ in pending if ready_at.get(i, 0.0) > now
                ]
                horizon = min(deadlines + releases) if deadlines or releases else None
                done, _ = wait(
                    set(inflight),
                    timeout=(
                        None if horizon is None
                        else max(0.0, horizon - time.monotonic())
                    ),
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for future in done:
                    meta = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        # A broken pool kills every in-flight request at
                        # once; put this one back and handle them uniformly
                        # below.
                        pool_broken = True
                        inflight[future] = meta
                        break
                    except BaseException as exc:
                        self._failed(meta.index, meta.attempt, meta.started, exc)
                    else:
                        self._succeeded(meta.index, meta.attempt, meta.started, value)
                if pool_broken:
                    # Every in-flight attempt died with the pool: charge
                    # each one (the culprit cannot be told apart from the
                    # victims) and let the breaker logic decide what the
                    # replacement pool looks like.
                    casualties = list(inflight.values())
                    inflight.clear()
                    for meta in casualties:
                        self._failed(
                            meta.index, meta.attempt, meta.started,
                            BrokenProcessPool("worker pool broke mid-batch"),
                        )
                    self._pool_failure("broken process pool")
                    continue
                # Hung-worker detection: anything past its deadline cannot
                # be cancelled through the Future API, so the whole pool is
                # replaced; innocents are re-submitted without consuming an
                # attempt.
                now = time.monotonic()
                expired = [
                    (future, meta)
                    for future, meta in inflight.items()
                    if meta.deadline is not None
                    and meta.deadline <= now
                    and not future.done()
                ]
                if expired:
                    for future, meta in expired:
                        del inflight[future]
                        self._failed(
                            meta.index, meta.attempt, meta.started, None,
                            timed_out=True,
                        )
                    innocents = list(inflight.values())
                    inflight.clear()
                    for meta in innocents:
                        pending.appendleft((meta.index, meta.attempt))
                        ready_at.pop(meta.index, None)
                    self._pool_failure("hung worker past deadline")
        finally:
            # Workers can still be mid-request when an exception unwinds
            # (fail-fast, KeyboardInterrupt) — those must not be waited
            # on.  A drained loop left only idle workers: close politely.
            if inflight:
                self._abort_pool()
            else:
                self._close_pool()
