"""Static HLS-compatibility linter for adapted LLVM IR.

The "HLS-readable LLVM IR" contract the paper's adaptor promises is
encoded here as a registry of individually-addressable rules (stable
``REPRO-LINT-*`` codes, error/warning severities) with IR-level matchers
over :class:`repro.ir.Module`:

* error rules mirror what the strict frontend rejects outright (freeze,
  opaque pointers, poison, unknown intrinsics, struct SSA);
* warning rules encode conventions the frontend tolerates but that cost
  directives or analysis precision (GEP shapes, loop-metadata dialect,
  interface contract, modern attributes).

:func:`run_lint` produces a :class:`LintReport`; the adaptor pipeline
runs it as a post-adaptor gate (``HLSAdaptor(lint=...)``), golden updates
refuse dirty snapshots, and ``python -m repro lint`` exposes it on the
command line.  Every registered rule must ship a triggering and a clean
conformance fixture — ``tests/lint`` enforces that with a meta-test.
"""

from .linter import LintReport, run_lint
from .rules import (
    LINT_RULES,
    LintFinding,
    LintRule,
    all_rules,
    get_rule,
    lint_rule,
    resolve_rules,
)

__all__ = [
    "LINT_RULES",
    "LintFinding",
    "LintReport",
    "LintRule",
    "all_rules",
    "get_rule",
    "lint_rule",
    "resolve_rules",
    "run_lint",
]
