"""The chaos profile: spec parsing, deterministic assignment, fault hooks."""

from __future__ import annotations

import pytest

from repro.testing import (
    CHAOS_FAULTS,
    ChaosCrash,
    ChaosProfile,
    apply_chaos,
    corrupt_entry_file,
    request_fingerprint,
)


class TestProfileSpec:
    def test_from_spec(self):
        profile = ChaosProfile.from_spec(
            "seed=42,crash=1,hang=2,slow-seconds=0.5"
        )
        assert profile.seed == 42
        assert profile.crash == 1 and profile.hang == 2
        assert profile.slow_seconds == 0.5
        assert profile.total_faults == 3

    def test_from_spec_accepts_dashed_keys(self):
        profile = ChaosProfile.from_spec("corrupt-cache=2,fault-attempts=2")
        assert profile.corrupt_cache == 2
        assert profile.fault_attempts == 2

    @pytest.mark.parametrize(
        "spec", ["bogus", "unknown=1", "crash=lots", "crash=-1"]
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            ChaosProfile.from_spec(spec)


class TestAssignment:
    FPS = [request_fingerprint(f"kernel{i}", "sig", {"N": 8}) for i in range(6)]

    def test_counts_are_exact(self):
        profile = ChaosProfile(seed=1, crash=1, hang=2, slow=1)
        plans = profile.assign(self.FPS)
        faults = sorted(p["fault"] for p in plans.values())
        assert faults == ["crash", "hang", "hang", "slow"]
        assert set(plans) <= set(self.FPS)

    def test_same_seed_same_plan(self):
        first = ChaosProfile(seed=9, crash=1, slow=1).assign(self.FPS)
        second = ChaosProfile(seed=9, crash=1, slow=1).assign(self.FPS)
        assert first == second

    def test_different_seed_moves_the_faults(self):
        seeds = {
            seed: frozenset(ChaosProfile(seed=seed, crash=1).assign(self.FPS))
            for seed in range(8)
        }
        assert len(set(seeds.values())) > 1

    def test_plans_carry_durations(self):
        profile = ChaosProfile(
            seed=1, hang=1, slow=1, hang_seconds=60.0, slow_seconds=0.25
        )
        plans = profile.assign(self.FPS)
        by_fault = {p["fault"]: p for p in plans.values()}
        assert by_fault["hang"]["seconds"] == 60.0
        assert by_fault["slow"]["seconds"] == 0.25

    def test_fingerprint_is_stable_and_cheap_to_disagree(self):
        base = request_fingerprint("gemm", "sig", {"NI": 4}, seed=17)
        assert base == request_fingerprint("gemm", "sig", {"NI": 4}, seed=17)
        assert base != request_fingerprint("gemm", "sig", {"NI": 8}, seed=17)
        assert base != request_fingerprint("gemm", "sig", {"NI": 4}, seed=18)

    def test_fault_registry_matches_profile_fields(self):
        assert set(CHAOS_FAULTS) == {"crash", "hang", "slow", "corrupt-cache"}


class TestApplyChaos:
    def test_crash_plan_raises(self):
        with pytest.raises(ChaosCrash):
            apply_chaos({"fault": "crash", "attempts": 1}, attempt=1)

    def test_fault_spares_later_attempts(self):
        apply_chaos({"fault": "crash", "attempts": 1}, attempt=2)  # no raise

    def test_fault_attempts_extends_the_misery(self):
        with pytest.raises(ChaosCrash):
            apply_chaos({"fault": "crash", "attempts": 2}, attempt=2)

    def test_none_plan_is_a_noop(self):
        apply_chaos(None, attempt=1)

    def test_slow_plan_sleeps_briefly(self):
        import time

        start = time.perf_counter()
        apply_chaos({"fault": "slow", "attempts": 1, "seconds": 0.05}, 1)
        assert time.perf_counter() - start >= 0.05


class TestCorruption:
    def test_corrupt_entry_file_breaks_verification(self, tmp_path):
        from repro.service import CompilationCache

        cache = CompilationCache(str(tmp_path))
        key = "a" * 64
        cache.store(key, {"x": 1})
        assert cache.verify(key)
        assert corrupt_entry_file(cache.entry_path(key))
        assert not cache.verify(key)
        # The service contract: corruption degrades to a miss.
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1

    def test_corrupt_missing_file_reports_false(self, tmp_path):
        assert not corrupt_entry_file(str(tmp_path / "nope.entry"))
