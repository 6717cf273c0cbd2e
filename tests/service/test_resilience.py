"""Failure policies, the resilient executor, and policy-aware batches.

The executor unit tests drive :class:`ResilientExecutor` with stub
workers (crash / flake / hang / pool-killer) so every resilience path —
isolation, retry, deadline, circuit breaker — is exercised without
compiling anything.  The service-level tests then run real MINI batches
under injected chaos, including the acceptance scenario: a 15-kernel
batch surviving one crash, one hang and one slow worker under a retry
policy, deterministically.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.diagnostics.errors import (
    CompilationError,
    PipelineConfigError,
    ServiceError,
)
from repro.observability import StatisticsRegistry, use_statistics
from repro.service import (
    CompilationService,
    FailurePolicy,
    RequestOutcome,
    ResilientExecutor,
    SuiteReport,
    default_jobs,
    outcome_counts,
)
from repro.testing import ChaosProfile
from repro.workloads.suite import SUITE_SIZES

SUBSET = ["gemm", "atax", "bicg"]


# ---------------------------------------------------------------------------
# stub workers — module-level so they pickle under every start method
# ---------------------------------------------------------------------------

def _stub_worker(payload: dict, attempt: int):
    """Scriptable worker: the payload says how this id misbehaves.

    ``crash``: raise every attempt.  ``flaky``: raise on attempt 1 only.
    ``hang``: sleep ``hang_seconds`` on attempt 1 only.  ``exit``: kill
    the worker process outright (breaks the whole pool).
    """
    ident = payload["id"]
    if ident in payload.get("crash", ()):
        raise RuntimeError(f"stub crash #{ident}")
    if ident in payload.get("flaky", ()) and attempt == 1:
        raise RuntimeError(f"stub flake #{ident}")
    if ident in payload.get("hang", ()) and attempt == 1:
        time.sleep(payload.get("hang_seconds", 30.0))
    if ident in payload.get("exit", ()) and attempt == 1:
        os._exit(3)
    return f"done-{ident}"


def _serial_recovery(payload: dict, attempt: int):
    """Degraded-mode fallback: always succeeds (in-process, no pool)."""
    return f"serial-{payload['id']}"


def _payloads(n: int, **misbehaviour) -> list:
    return [{"id": i, **misbehaviour} for i in range(n)]


# ---------------------------------------------------------------------------
# FailurePolicy
# ---------------------------------------------------------------------------

class TestFailurePolicy:
    def test_defaults(self):
        policy = FailurePolicy()
        assert policy.mode == "fail-fast"
        assert policy.attempts == 1
        assert policy.timeout is None

    def test_retry_defaults_to_two_attempts(self):
        assert FailurePolicy(mode="retry").attempts == 2
        assert FailurePolicy(mode="retry", max_attempts=5).attempts == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "explode"},
            {"max_attempts": 0},
            {"timeout": 0},
            {"timeout": -1.5},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"circuit_threshold": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PipelineConfigError):
            FailurePolicy(**kwargs)

    def test_backoff_is_deterministic_and_exponential(self):
        policy = FailurePolicy(
            mode="retry", backoff_base=0.05, backoff_factor=2.0
        )
        schedule = [policy.backoff_for(n) for n in (1, 2, 3)]
        assert schedule == [0.05, 0.1, 0.2]
        # Same policy, same schedule — no jitter anywhere.
        again = FailurePolicy(
            mode="retry", backoff_base=0.05, backoff_factor=2.0
        )
        assert [again.backoff_for(n) for n in (1, 2, 3)] == schedule

    def test_describe(self):
        assert FailurePolicy().describe() == "fail-fast"
        assert (
            FailurePolicy(mode="retry", timeout=10).describe()
            == "retry,attempts=2,timeout=10s"
        )

    def test_outcome_counts_has_every_status(self):
        counts = outcome_counts(
            [RequestOutcome(index=0, kernel="k", config="c", status="failed")]
        )
        assert counts == {
            "ok": 0, "retried-then-ok": 0, "failed": 1, "timed-out": 0
        }


# ---------------------------------------------------------------------------
# ResilientExecutor(jobs=1) — the in-process loop, fast
# ---------------------------------------------------------------------------

class TestRunSerial:
    def _run(self, payloads, policy):
        labels = [f"req{p['id']}" for p in payloads]
        return ResilientExecutor(
            _stub_worker, payloads, jobs=1, policy=policy,
            labels=labels, configs=["cfg"] * len(payloads),
        ).run()

    def test_all_ok(self):
        outcomes, results = self._run(_payloads(3), FailurePolicy())
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert results == {0: "done-0", 1: "done-1", 2: "done-2"}

    def test_continue_isolates_the_failure(self):
        outcomes, results = self._run(
            _payloads(3, crash=[1]), FailurePolicy(mode="continue")
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert sorted(results) == [0, 2]
        assert "stub crash #1" in outcomes[1].error

    def test_retry_turns_flake_into_retried_then_ok(self):
        registry = StatisticsRegistry()
        with use_statistics(registry):
            outcomes, results = self._run(
                _payloads(3, flaky=[2]),
                FailurePolicy(mode="retry", backoff_base=0.0),
            )
        assert [o.status for o in outcomes] == ["ok", "ok", "retried-then-ok"]
        assert outcomes[2].attempts == 2
        assert len(results) == 3
        counters = registry.as_dict()["service"]
        assert counters == {"failures": 1, "retries": 1}

    def test_exhausted_retries_record_failed(self):
        outcomes, _ = self._run(
            _payloads(2, crash=[0]),
            FailurePolicy(mode="retry", max_attempts=3, backoff_base=0.0),
        )
        assert outcomes[0].status == "failed"
        assert outcomes[0].attempts == 3

    def test_fail_fast_propagates_unwrapped(self):
        with pytest.raises(RuntimeError, match="stub crash #0"):
            self._run(_payloads(2, crash=[0]), FailurePolicy())


# ---------------------------------------------------------------------------
# ResilientExecutor — real process pools (slow tier)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestResilientExecutor:
    def _executor(self, payloads, policy, jobs=2):
        labels = [f"req{p['id']}" for p in payloads]
        return ResilientExecutor(
            _stub_worker, payloads, jobs=jobs, policy=policy,
            labels=labels, configs=["cfg"] * len(payloads),
            serial_fn=_serial_recovery,
        )

    def test_continue_returns_partial_results(self):
        outcomes, results = self._executor(
            _payloads(4, crash=[1]), FailurePolicy(mode="continue")
        ).run()
        assert [o.status for o in outcomes] == ["ok", "failed", "ok", "ok"]
        assert sorted(results) == [0, 2, 3]
        assert outcomes[1].error_code is None  # plain RuntimeError

    def test_retry_recovers_flaky_worker(self):
        registry = StatisticsRegistry()
        with use_statistics(registry):
            outcomes, results = self._executor(
                _payloads(4, flaky=[0, 3]),
                FailurePolicy(mode="retry", backoff_base=0.0),
            ).run()
        statuses = [o.status for o in outcomes]
        assert statuses == ["retried-then-ok", "ok", "ok", "retried-then-ok"]
        assert len(results) == 4
        counters = registry.as_dict()["service"]
        assert counters["retries"] == 2 and counters["failures"] == 2

    def test_hung_worker_times_out_and_innocents_survive(self):
        registry = StatisticsRegistry()
        with use_statistics(registry):
            outcomes, results = self._executor(
                _payloads(3, hang=[1], hang_seconds=30.0),
                FailurePolicy(mode="continue", timeout=1.0),
            ).run()
        assert outcomes[1].status == "timed-out"
        assert outcomes[1].error_code == "REPRO-SVC-003"
        assert "deadline" in outcomes[1].error
        assert outcomes[0].status == "ok" and outcomes[2].status == "ok"
        assert sorted(results) == [0, 2]
        assert registry.as_dict()["service"]["timeouts"] == 1

    def test_retry_gives_hung_worker_a_second_chance(self):
        # The stub only hangs on attempt 1, so a retry policy turns the
        # timeout into retried-then-ok.
        outcomes, results = self._executor(
            _payloads(2, hang=[0], hang_seconds=30.0),
            FailurePolicy(mode="retry", timeout=1.0, backoff_base=0.0),
        ).run()
        assert outcomes[0].status == "retried-then-ok"
        assert len(results) == 2

    def test_fail_fast_wraps_plain_errors_in_service_error(self):
        start = time.monotonic()
        with pytest.raises(ServiceError):
            self._executor(_payloads(3, crash=[0]), FailurePolicy()).run()
        # The pool is torn down, not drained: failing fast is fast.
        assert time.monotonic() - start < 20

    def test_broken_pools_trip_the_breaker_and_degrade(self):
        registry = StatisticsRegistry()
        executor = self._executor(
            _payloads(3, exit=[0]),
            FailurePolicy(
                mode="retry", max_attempts=2,
                backoff_base=0.0, circuit_threshold=1,
            ),
        )
        with use_statistics(registry):
            outcomes, results = executor.run()
        assert executor.degraded
        # Every request finished — the pool-killer via the in-process
        # fallback, the rest wherever they landed.
        assert len(results) == 3
        assert all(o.ok for o in outcomes)
        assert results[0].startswith("serial-")
        assert registry.as_dict()["service"]["degraded"] == 1


# ---------------------------------------------------------------------------
# default_jobs — $REPRO_JOBS validation
# ---------------------------------------------------------------------------

class TestDefaultJobs:
    def test_unset_and_blank_default_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert default_jobs() == 1

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_invalid_values_raise_clear_diagnostic(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(PipelineConfigError, match="REPRO_JOBS") as info:
            default_jobs()
        assert value in str(info.value)


# ---------------------------------------------------------------------------
# SuiteReport — outcome bookkeeping and rendering
# ---------------------------------------------------------------------------

class TestSuiteReportOutcomes:
    def _report(self):
        report = SuiteReport(
            config="baseline", size_class="MINI", jobs=2, policy="continue"
        )
        report.outcomes = [
            RequestOutcome(index=0, kernel="gemm", config="baseline",
                           comparison_index=0),
            RequestOutcome(index=1, kernel="atax", config="baseline",
                           status="failed", attempts=1,
                           error="RuntimeError: boom"),
            RequestOutcome(index=2, kernel="bicg", config="baseline",
                           status="timed-out", attempts=2,
                           error="worker exceeded 5s deadline",
                           error_code="REPRO-SVC-003"),
        ]
        return report

    def test_ok_count_and_failures(self):
        report = self._report()
        assert report.ok_count == 1
        assert [o.kernel for o in report.failures] == ["atax", "bicg"]
        assert report.outcome_counts()["timed-out"] == 1

    def test_summary_renders_outcomes_and_failure_details(self):
        text = self._report().summary()
        assert "outcomes [continue]:" in text
        assert "1 ok" in text and "1 failed" in text and "1 timed-out" in text
        assert "FAILED atax" in text and "RuntimeError: boom" in text
        assert "TIMED-OUT bicg" in text and "[REPRO-SVC-003]" in text

    def test_clean_fail_fast_summary_stays_quiet(self):
        report = SuiteReport(
            config="baseline", size_class="MINI", jobs=1, policy="fail-fast"
        )
        report.outcomes = [
            RequestOutcome(index=0, kernel="gemm", config="baseline",
                           comparison_index=0)
        ]
        assert "outcomes" not in report.summary()


# ---------------------------------------------------------------------------
# service-level chaos — real compiles, serial (tier-1 speed)
# ---------------------------------------------------------------------------

class TestServiceChaosSerial:
    def _service(self, tmp_path, **kwargs):
        return CompilationService(cache_dir=str(tmp_path / "cache"), **kwargs)

    def test_continue_isolates_injected_crash(self, tmp_path):
        chaos = ChaosProfile(seed=7, crash=1)
        service = self._service(tmp_path, chaos=chaos)
        report = service.run_suite(
            "baseline", kernels=SUBSET, size_class="MINI",
            policy=FailurePolicy(mode="continue"),
        )
        counts = report.outcome_counts()
        assert counts["ok"] == 2 and counts["failed"] == 1
        assert len(report.comparisons) == 2
        failed = report.failures[0]
        assert "ChaosCrash" in failed.error
        assert report.comparison_for(failed) is None
        # Comparison indices still join outcomes to rows correctly.
        for outcome in report.outcomes:
            if outcome.ok:
                assert report.comparison_for(outcome).kernel == outcome.kernel

    def test_retry_recovers_injected_crash(self, tmp_path):
        chaos = ChaosProfile(seed=7, crash=1)
        registry = StatisticsRegistry()
        service = self._service(tmp_path, chaos=chaos)
        with use_statistics(registry):
            report = service.run_suite(
                "baseline", kernels=SUBSET, size_class="MINI",
                policy=FailurePolicy(mode="retry", backoff_base=0.0),
            )
        counts = report.outcome_counts()
        assert counts["ok"] == 2 and counts["retried-then-ok"] == 1
        assert len(report.comparisons) == 3
        counters = registry.as_dict()["service"]
        assert counters["retries"] == 1 and counters["failures"] == 1

    def test_same_seed_same_victims(self, tmp_path):
        policy = FailurePolicy(mode="continue")
        first = self._service(
            tmp_path / "a", chaos=ChaosProfile(seed=11, crash=1)
        ).run_suite("baseline", kernels=SUBSET, size_class="MINI", policy=policy)
        second = self._service(
            tmp_path / "b", chaos=ChaosProfile(seed=11, crash=1)
        ).run_suite("baseline", kernels=SUBSET, size_class="MINI", policy=policy)
        assert (
            [o.status for o in first.outcomes]
            == [o.status for o in second.outcomes]
        )

    def test_fail_fast_still_raises(self, tmp_path):
        service = self._service(tmp_path, chaos=ChaosProfile(seed=7, crash=1))
        with pytest.raises(Exception):
            service.run_suite("baseline", kernels=SUBSET, size_class="MINI")

    def test_corrupt_cache_chaos_degrades_next_read(self, tmp_path):
        chaos = ChaosProfile(seed=7, corrupt_cache=1)
        service = self._service(tmp_path, chaos=chaos)
        first = service.run_suite(
            "baseline", kernels=SUBSET, size_class="MINI",
            policy=FailurePolicy(mode="continue"),
        )
        assert first.ok_count == 3  # corruption hits the entry, not the run
        # Re-run without chaos: the damaged entry must degrade to a
        # recompile (REPRO-CACHE-001), never crash the batch.
        clean = CompilationService(cache_dir=str(tmp_path / "cache"))
        second = clean.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        statuses = sorted(c.cache_status for c in second.comparisons)
        assert statuses == ["hit", "hit", "miss"]
        assert clean.cache.stats.corrupt == 1
        assert any(
            d.code == "REPRO-CACHE-001" for d in clean.engine.diagnostics
        )


@pytest.mark.slow
def test_degraded_requests_compile_on_the_service_handle(tmp_path):
    """Once the circuit opens, the rest of the batch runs on the service's
    own handle, as ``jobs=1`` requests do: its memory tier keeps the row."""
    service = CompilationService(
        cache_dir=str(tmp_path / "cache"), jobs=2, mem_entries=64,
        chaos=ChaosProfile(seed=3, hang=1, hang_seconds=60),
    )
    report = service.run_suite(
        "baseline", kernels=["gemm", "atax"], size_class="MINI",
        policy=FailurePolicy(
            mode="retry", max_attempts=2, timeout=1.0,
            circuit_threshold=1, backoff_base=0,
        ),
    )
    assert report.degraded
    (retried,) = [o for o in report.outcomes if o.status == "retried-then-ok"]
    key = service.request_key(
        retried.kernel, SUITE_SIZES["MINI"][retried.kernel], "baseline"
    )
    assert key in service.cache.mem


# ---------------------------------------------------------------------------
# the acceptance scenario — parallel batch under crash+hang+slow (slow tier)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestChaosAcceptance:
    def _run(self, tmp_path, sub):
        chaos = ChaosProfile(
            seed=42, crash=1, hang=1, slow=1,
            hang_seconds=60.0, slow_seconds=0.3,
        )
        policy = FailurePolicy(
            mode="retry", max_attempts=2, timeout=20.0, backoff_base=0.01
        )
        service = CompilationService(
            cache_dir=str(tmp_path / f"cache-{sub}"), jobs=4, chaos=chaos
        )
        registry = StatisticsRegistry()
        with use_statistics(registry):
            report = service.run_suite(
                "baseline", size_class="MINI", check_equivalence=True,
                policy=policy,
            )
        return report, registry.as_dict().get("service", {})

    def test_full_suite_survives_crash_hang_slow(self, tmp_path):
        report, counters = self._run(tmp_path, "a")
        assert len(report.outcomes) == 15
        counts = report.outcome_counts()
        # The slow worker finishes inside the deadline; crash and hang
        # each burn one attempt and recover on the second.
        assert counts["retried-then-ok"] == 2
        assert counts["ok"] == 13
        assert len(report.comparisons) >= 14
        assert all(
            c.functionally_equivalent for c in report.comparisons
        )
        assert counters["timeouts"] == 1
        assert counters["failures"] == 1
        assert counters["retries"] == 2

        # Determinism: same seed, fresh cache — identical statuses.
        again, counters_again = self._run(tmp_path, "b")
        assert (
            [o.status for o in report.outcomes]
            == [o.status for o in again.outcomes]
        )
        assert counters_again == counters
