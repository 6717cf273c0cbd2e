"""Fault injectors, the mutation fuzzer, and the pipeline invariant:
every input is either rejected with a structured diagnostic or produces
verifier-clean, frontend-accepted IR that passes the HLS-compatibility
linter at error severity."""

import pytest

from repro.diagnostics import CompilationError, PassExecutionError
from repro.ir import print_module, verify_module
from repro.ir.verifier import VerificationError
from repro.testing import (
    FAULT_MODES,
    MUTATION_NAMES,
    FaultyPass,
    IRMutationFuzzer,
    adapt_or_reject,
    build_seed_module,
    inject_into,
)


@pytest.fixture
def seed_module():
    return build_seed_module("gemm", NI=4, NJ=4, NK=4)


class TestFaultModes:
    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_every_mode_produces_structured_failure(self, tmp_path, mode, seed_module):
        from repro.adaptor import HLSAdaptor

        adaptor = HLSAdaptor(
            reproducer_dir=str(tmp_path),
            instrument=inject_into("dce", mode=mode),
        )
        # drop-loop-metadata is a *silent* fault: it corrupts nothing the
        # verifier checks, so the pipeline may legitimately succeed.  Every
        # other mode must surface as a structured error with attribution.
        try:
            adaptor.run(seed_module)
            assert mode == "drop-loop-metadata"
        except CompilationError as exc:
            assert isinstance(exc, PassExecutionError)
            assert exc.pass_name == "dce"
            assert exc.diagnostic is not None
            # guard rolled back: module is verifier-clean again
            verify_module(seed_module)

    def test_faulty_pass_keeps_inner_name(self):
        from repro.adaptor import PASS_FACTORY

        inner = PASS_FACTORY["dce"]()
        assert FaultyPass(inner, mode="raise").name == inner.name

    def test_unknown_mode_rejected(self):
        from repro.adaptor import PASS_FACTORY

        with pytest.raises(ValueError):
            FaultyPass(PASS_FACTORY["dce"](), mode="made-up-mode")


class TestFuzzer:
    def test_deterministic_same_seed(self):
        m1 = build_seed_module("gemm", NI=4, NJ=4, NK=4)
        m2 = build_seed_module("gemm", NI=4, NJ=4, NK=4)
        applied1 = IRMutationFuzzer(seed=7).mutate(m1, count=3)
        applied2 = IRMutationFuzzer(seed=7).mutate(m2, count=3)
        assert applied1 == applied2
        assert print_module(m1) == print_module(m2)

    def test_different_seeds_diverge(self):
        # Not guaranteed per-seed-pair, but across a batch at least one
        # pair must differ or the fuzzer is not actually seeded.
        batches = []
        for seed in range(6):
            m = build_seed_module("gemm", NI=4, NJ=4, NK=4)
            batches.append(tuple(IRMutationFuzzer(seed=seed).mutate(m, count=3)))
        assert len(set(batches)) > 1

    def test_mutation_catalog_is_stable(self):
        # Mutation names are part of the reproducibility contract: CI logs
        # say "seed 12 applied phi-retype", and that must stay meaningful.
        for name in (
            "opaque-flag",
            "insert-freeze",
            "poison-operand",
            "unknown-intrinsic",
            "phi-retype",
            "use-before-def",
            "duplicate-symbol",
            "swap-commutative",
        ):
            assert name in MUTATION_NAMES

    def test_mutations_actually_mutate(self, seed_module):
        before = print_module(seed_module)
        applied = IRMutationFuzzer(seed=3).mutate(seed_module, count=2)
        assert applied
        changed = print_module(seed_module) != before
        # Some mutations (opaque-flag) do not show in the text but flip
        # module state; accept either observable change.
        assert changed or seed_module.opaque_pointers


class TestPipelineInvariant:
    """The hardening contract, on a bounded seed set (CI smoke runs the
    same loop; see .github/workflows/ci.yml)."""

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(8))
    def test_reject_or_adapt_cleanly(self, tmp_path, seed):
        module = build_seed_module("gemm", NI=4, NJ=4, NK=4)
        IRMutationFuzzer(seed=seed).mutate(module, count=2)
        outcome, payload = adapt_or_reject(module, reproducer_dir=str(tmp_path))
        if outcome == "rejected":
            assert isinstance(payload, CompilationError)
            assert payload.code.startswith("REPRO-")
        else:
            assert outcome == "adapted"
            verify_module(module)  # arrived verifier-clean
            assert payload.lint is not None  # ... and carries a lint verdict
            assert not payload.lint.errors  # ... with no error-severity findings

    def test_clean_seed_adapts(self, tmp_path):
        module = build_seed_module("gemm", NI=4, NJ=4, NK=4)
        outcome, report = adapt_or_reject(module, reproducer_dir=str(tmp_path))
        assert outcome == "adapted"
        assert report.total_rewrites > 0
        assert report.lint is not None and not report.lint.errors

    def test_lint_dirty_survivor_is_an_invariant_violation(self, tmp_path):
        """A module the frontend accepts but the linter flags at error
        severity must not come back as 'rejected' — it raises."""
        from repro.diagnostics import LintError
        from repro.ir import IRBuilder, Module
        from repro.ir import types as irt

        # An *unused* struct-typed argument sails past the strict frontend
        # (which polices struct SSA chains, not signatures) but violates
        # the struct-flat-values lint rule.
        hostile = Module("hostile", opaque_pointers=False)
        st = irt.struct_of(irt.f32, irt.i32)
        fn = hostile.add_function(
            "top", irt.function_type(irt.void, [st]), ["leak"]
        )
        IRBuilder(fn.add_block("entry")).ret()
        with pytest.raises(LintError) as excinfo:
            adapt_or_reject(hostile, reproducer_dir=str(tmp_path))
        assert "REPRO-LINT-010" in str(excinfo.value)

    def test_hostile_seed_rejects_structurally(self, tmp_path):
        module = build_seed_module("gemm", NI=4, NJ=4, NK=4)
        # use-before-def breaks dominance: must be rejected at input verify
        fuzzer = IRMutationFuzzer(seed=0)
        from repro.testing.fault_injection import _mut_use_before_def

        assert _mut_use_before_def(module, fuzzer.rng)
        outcome, err = adapt_or_reject(module, reproducer_dir=str(tmp_path))
        assert outcome == "rejected"
        assert err.code == "REPRO-INPUT-001" or isinstance(err, VerificationError)

    def test_retyped_phi_is_rejected_as_input(self):
        # The retype must void the clean token the seed's cleanup recorded,
        # so the adaptor's entry verify rejects the module instead of its
        # last pass taking the blame.
        from repro.testing.fault_injection import _mut_phi_retype

        module = build_seed_module("gemm", NI=4, NJ=4, NK=4)
        assert _mut_phi_retype(module, IRMutationFuzzer(seed=0).rng)
        outcome, err = adapt_or_reject(module)
        assert outcome == "rejected"
        assert err.code == "REPRO-INPUT-001"
