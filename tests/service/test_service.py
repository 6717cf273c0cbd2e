"""Compilation service: cold/warm determinism, invalidation, parallel runs."""

from __future__ import annotations

import threading

import pytest

from repro.diagnostics.errors import PipelineConfigError
from repro.flows import OptimizationConfig, compare_flows
from repro.service import CompilationService, CompileRequest, resolve_config
from repro.service import fingerprint as fp_mod
from repro.service import service as service_mod
from repro.workloads.suite import SUITE_SIZES

GEMM_MINI = SUITE_SIZES["MINI"]["gemm"]
SUBSET = ["gemm", "atax", "bicg"]


@pytest.fixture
def service(tmp_path):
    return CompilationService(cache_dir=str(tmp_path / "cache"))


class TestResolveConfig:
    def test_named(self):
        cfg = resolve_config("optimized")
        assert cfg.pipeline_innermost and cfg.name == "optimized"

    def test_passthrough(self):
        cfg = OptimizationConfig.baseline()
        assert resolve_config(cfg) is cfg

    def test_unknown_name(self):
        with pytest.raises(PipelineConfigError):
            resolve_config("turbo")

    def test_bad_jobs(self, tmp_path):
        with pytest.raises(PipelineConfigError):
            CompilationService(cache_dir=str(tmp_path), jobs=0)


class TestColdWarm:
    def test_cold_then_warm_bit_identical(self, service):
        cold = service.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        warm = service.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        assert [c.cache_status for c in cold.comparisons] == ["miss"] * 3
        assert [c.cache_status for c in warm.comparisons] == ["hit"] * 3
        # The FlowComparison rows — the benchmark tables' raw material —
        # must be bit-identical between a compile and a cache hit.
        assert [c.row() for c in cold.comparisons] == [c.row() for c in warm.comparisons]
        for c_cold, c_warm in zip(cold.comparisons, warm.comparisons):
            assert c_cold.functionally_equivalent == c_warm.functionally_equivalent
            assert c_cold.max_abs_error == c_warm.max_abs_error
            assert c_cold.adaptor.latency == c_warm.adaptor.latency
            assert c_cold.adaptor.resources == c_warm.adaptor.resources
            assert (
                c_cold.adaptor.adaptor_report.rewrites_by_pass()
                == c_warm.adaptor.adaptor_report.rewrites_by_pass()
            )

    def test_warm_hit_crosses_service_instances(self, tmp_path):
        a = CompilationService(cache_dir=str(tmp_path))
        b = CompilationService(cache_dir=str(tmp_path))
        assert a.compile_one("gemm", sizes=GEMM_MINI).cache_status == "miss"
        assert b.compile_one("gemm", sizes=GEMM_MINI).cache_status == "hit"

    def test_suite_report_stats(self, service):
        cold = service.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        assert cold.cache_stats.misses == 3
        assert cold.cache_stats.stores == 3
        assert cold.compile_seconds > 0
        warm = service.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        assert warm.cache_stats.hits == 3
        assert warm.cache_stats.hit_rate == 1.0
        summary = warm.summary()
        assert "hit rate" in summary and "gemm" in summary

    def test_unknown_kernel_rejected(self, service):
        with pytest.raises(PipelineConfigError):
            service.run_suite("baseline", kernels=["nope"], size_class="MINI")

    def test_unknown_size_class_rejected(self, service):
        with pytest.raises(PipelineConfigError):
            service.compile_one("gemm", size_class="HUGE")


def ir_modules(row):
    return (row.adaptor.ir_module, row.adaptor.modern_ir_module, row.cpp.ir_module)


class TestLeanRows:
    """Service rows carry results, not the flows' IR modules."""

    def test_compile_one_miss_and_hit_carry_no_ir(self, service):
        miss = service.compile_one("gemm", sizes=GEMM_MINI, check_equivalence=False)
        hit = service.compile_one("gemm", sizes=GEMM_MINI, check_equivalence=False)
        assert (miss.cache_status, hit.cache_status) == ("miss", "hit")
        assert ir_modules(miss) == ir_modules(hit) == (None, None, None)
        # The results themselves survive the stripping and the cache.
        assert hit.row() == miss.row()
        assert hit.adaptor_metrics == miss.adaptor_metrics
        assert hit.cpp_metrics == miss.cpp_metrics

    def test_batch_rows_carry_no_ir(self, service):
        report = service.run_suite(
            "baseline", kernels=["gemm", "atax"], size_class="MINI",
            check_equivalence=False,
        )
        assert service.jobs == 1 and len(report.comparisons) == 2
        for row in report.comparisons:
            assert ir_modules(row) == (None, None, None)

    def test_compare_flows_still_returns_modules(self):
        comparison = compare_flows(
            "gemm", GEMM_MINI, OptimizationConfig.baseline(), check_equivalence=False
        )
        assert comparison.adaptor.ir_module is not None
        assert comparison.cpp.ir_module is not None


class TestBatchCacheStats:
    """A batch's cache stats count its own rows, not the shared handle."""

    def test_concurrent_batches_do_not_leak(self, service, monkeypatch):
        atax = CompileRequest("atax", size_class="MINI", check_equivalence=False)
        gemm = CompileRequest("gemm", size_class="MINI", check_equivalence=False)
        service.compile_batch([atax])  # warm: the second batch will hit
        entered, release = threading.Event(), threading.Event()
        real_compare = service_mod.compare_flows

        def held_compare(*args, **kwargs):
            entered.set()
            assert release.wait(60)
            return real_compare(*args, **kwargs)

        monkeypatch.setattr(service_mod, "compare_flows", held_compare)
        reports, errors = {}, []

        def run_miss():
            try:
                reports["miss"] = service.compile_batch([gemm])
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        thread = threading.Thread(target=run_miss)
        thread.start()
        try:
            # The miss has looked up its key and is compiling; a whole
            # one-hit batch runs and finishes inside that window.
            assert entered.wait(60)
            reports["hit"] = service.compile_batch([atax])
        finally:
            release.set()
            thread.join(120)
        assert not errors
        hit, miss = reports["hit"].cache_stats, reports["miss"].cache_stats
        assert (hit.hits, hit.misses, hit.stores) == (1, 0, 0)
        assert (miss.hits, miss.misses, miss.stores) == (0, 1, 1)
        # The handle still sees everything: warm-up miss, hit, held miss.
        assert (service.cache.stats.hits, service.cache.stats.misses) == (1, 2)


class TestInvalidation:
    def test_config_change_invalidates(self, service):
        first = service.compile_one("gemm", "baseline", sizes=GEMM_MINI)
        other = service.compile_one("gemm", "optimized", sizes=GEMM_MINI)
        assert first.cache_status == "miss"
        assert other.cache_status == "miss"  # different config -> new entry
        assert service.compile_one("gemm", "baseline", sizes=GEMM_MINI).cache_status == "hit"
        assert service.compile_one("gemm", "optimized", sizes=GEMM_MINI).cache_status == "hit"

    def test_pipeline_version_bump_invalidates(self, service, monkeypatch):
        assert service.compile_one("gemm", sizes=GEMM_MINI).cache_status == "miss"
        assert service.compile_one("gemm", sizes=GEMM_MINI).cache_status == "hit"
        monkeypatch.setattr(fp_mod, "PIPELINE_VERSION", fp_mod.PIPELINE_VERSION + 1)
        assert service.compile_one("gemm", sizes=GEMM_MINI).cache_status == "miss"

    def test_seed_change_invalidates(self, service):
        assert service.compile_one("gemm", sizes=GEMM_MINI, seed=1).cache_status == "miss"
        assert service.compile_one("gemm", sizes=GEMM_MINI, seed=2).cache_status == "miss"
        assert service.compile_one("gemm", sizes=GEMM_MINI, seed=1).cache_status == "hit"


@pytest.mark.slow
class TestParallel:
    def test_parallel_run_matches_serial(self, tmp_path):
        serial = CompilationService(cache_dir=str(tmp_path / "a"), jobs=1)
        parallel = CompilationService(cache_dir=str(tmp_path / "b"), jobs=2)
        rs = serial.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        rp = parallel.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        assert [c.row() for c in rs.comparisons] == [c.row() for c in rp.comparisons]
        assert rp.cache_stats.misses == 3 and rp.cache_stats.stores == 3

    def test_parallel_workers_populate_shared_cache(self, tmp_path):
        parallel = CompilationService(cache_dir=str(tmp_path), jobs=2)
        parallel.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        # A fresh serial service over the same directory is fully warm.
        warm = CompilationService(cache_dir=str(tmp_path)).run_suite(
            "baseline", kernels=SUBSET, size_class="MINI"
        )
        assert [c.cache_status for c in warm.comparisons] == ["hit"] * 3

    def test_parallel_warm_hits(self, tmp_path):
        svc = CompilationService(cache_dir=str(tmp_path), jobs=2)
        svc.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        warm = svc.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        assert [c.cache_status for c in warm.comparisons] == ["hit"] * 3


class TestTimingProvenance:
    """compile_seconds records the compile that *produced* a row; the cost
    of serving it from the cache lives in lookup_seconds (satellite fix:
    the two used to be conflated in warm benchmark tables)."""

    def test_warm_row_keeps_original_compile_time(self, service):
        cold = service.compile_one("gemm", sizes=GEMM_MINI)
        warm = service.compile_one("gemm", sizes=GEMM_MINI)
        assert cold.cache_status == "miss" and warm.cache_status == "hit"
        assert warm.compile_seconds == cold.compile_seconds
        # A cache lookup is orders of magnitude cheaper than a compile;
        # if the hit's "compile time" were actually the lookup time this
        # would fail.
        assert warm.compile_seconds > warm.lookup_seconds

    def test_lookup_seconds_stamped_on_both_paths(self, service):
        cold = service.compile_one("gemm", sizes=GEMM_MINI)
        warm = service.compile_one("gemm", sizes=GEMM_MINI)
        assert cold.lookup_seconds > 0  # the miss probe is still a lookup
        assert warm.lookup_seconds > 0

    def test_suite_report_separates_saved_and_lookup(self, service):
        service.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        warm = service.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        assert warm.saved_seconds == pytest.approx(
            sum(c.compile_seconds for c in warm.comparisons)
        )
        assert warm.lookup_seconds == pytest.approx(
            sum(c.lookup_seconds for c in warm.comparisons)
        )
        assert warm.saved_seconds > warm.lookup_seconds
        assert "original compile time" in warm.summary()

    @pytest.mark.slow
    def test_parallel_rows_carry_timing_provenance(self, tmp_path):
        svc = CompilationService(cache_dir=str(tmp_path), jobs=2)
        cold = svc.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        warm = svc.run_suite("baseline", kernels=SUBSET, size_class="MINI")
        by_kernel = {c.kernel: c for c in cold.comparisons}
        for row in warm.comparisons:
            assert row.cache_status == "hit"
            assert row.compile_seconds == by_kernel[row.kernel].compile_seconds
            assert row.lookup_seconds > 0


class TestLintAggregation:
    def test_rows_carry_lint_verdicts_and_suite_is_clean(self, service):
        report = service.run_suite("baseline", kernels=["gemm"], size_class="MINI")
        (row,) = report.comparisons
        assert row.lint is not None and row.lint_clean is True
        assert report.lint_clean is True and not report.lint_dirty
        assert "lint: all modules clean" in report.summary()
        assert "clean" in row.row()

    def test_lint_verdict_survives_the_cache(self, service):
        service.run_suite("baseline", kernels=["gemm"], size_class="MINI")
        warm = service.run_suite("baseline", kernels=["gemm"], size_class="MINI")
        (row,) = warm.comparisons
        assert row.cache_status == "hit"
        assert row.lint is not None and row.lint_clean is True

    def test_dirty_row_flips_the_suite_verdict(self, service):
        report = service.run_suite("baseline", kernels=["gemm"], size_class="MINI")
        (row,) = report.comparisons
        # A warning-severity finding passes the in-pipeline gate but must
        # still surface in the suite verdict (what --fail-on-lint keys on).
        row.lint = {
            "clean": False,
            "errors": 0,
            "warnings": 1,
            "codes": ["REPRO-LINT-009"],
            "findings": [],
        }
        assert row.lint_clean is False
        assert report.lint_clean is False
        assert report.lint_dirty == [row]
        assert "REPRO-LINT-009" in row.row()
        assert "gemm" in report.summary().split("lint:")[-1]


class TestMaintenance:
    def test_cache_stats_by_kernel(self, service):
        service.run_suite("baseline", kernels=["gemm", "atax"], size_class="MINI")
        stats = service.cache_stats()
        assert stats["entries"] == 2
        assert stats["by_kernel"] == {"gemm": 1, "atax": 1}

    def test_cache_clear(self, service):
        service.run_suite("baseline", kernels=["gemm"], size_class="MINI")
        assert service.cache_clear() == 1
        assert service.compile_one("gemm", sizes=GEMM_MINI).cache_status == "miss"
