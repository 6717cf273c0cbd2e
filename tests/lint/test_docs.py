"""docs/lint-rules.md is generated from the registry — keep it current."""

from __future__ import annotations

import os

from repro.lint import LINT_RULES
from repro.lint.cli import render_rules_markdown

DOC_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "lint-rules.md"
)


def test_lint_rules_doc_is_current():
    assert os.path.exists(DOC_PATH), (
        "docs/lint-rules.md missing; regenerate with "
        "`python -m repro lint rules > docs/lint-rules.md`"
    )
    with open(DOC_PATH) as fh:
        checked_in = fh.read()
    assert checked_in == render_rules_markdown(), (
        "docs/lint-rules.md is stale; regenerate with "
        "`python -m repro lint rules > docs/lint-rules.md`"
    )


def test_doc_mentions_every_code():
    with open(DOC_PATH) as fh:
        text = fh.read()
    for code in LINT_RULES:
        assert code in text
