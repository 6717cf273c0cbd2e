"""The diagnostic engine: severities, stable error codes, attribution.

Modelled on MLIR's ``DiagnosticEngine``: components *emit* diagnostics
rather than printing to stderr, the engine collects them (and forwards to
any registered handlers), and machine consumers — the crash-reproducer
writer, the recovery loop in :class:`repro.adaptor.HLSAdaptor`, the CI fuzz
harness — read them back as data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticEngine",
    "ERROR_CODES",
]


class Severity(enum.IntEnum):
    NOTE = 0
    WARNING = 1
    ERROR = 2
    FATAL = 3


#: Stable machine-readable error codes.  Codes are append-only: a code is
#: never renumbered or reused, so logs and checked-in reproducers stay
#: meaningful across versions.
ERROR_CODES: Dict[str, str] = {
    "REPRO-E000": "unclassified compilation failure",
    "REPRO-CFG-001": "invalid pipeline configuration",
    "REPRO-INPUT-001": "input module failed pre-pipeline validation",
    "REPRO-PASS-001": "a transform pass raised mid-mutation",
    "REPRO-PASS-002": "IR verification failed after a pass",
    "REPRO-VERIFY-001": "module failed IR verification",
    "REPRO-FRONTEND-001": "module rejected by the strict HLS frontend",
    "REPRO-FLOW-001": "end-to-end flow stage failure",
    "REPRO-REPLAY-001": "crash-reproducer replay failure",
    "REPRO-DEGRADE-001": "non-essential pass disabled after failure (recovered)",
    "REPRO-CACHE-001": "corrupted compilation-cache entry (degraded to recompile)",
    "REPRO-CACHE-002": "compilation-cache entry version mismatch (treated as miss)",
    # Retired (codes are append-only): noted the flat->sharded cache
    # migration, which no longer exists.
    "REPRO-CACHE-003": "retired: legacy flat cache layout migrated to sharded segments",
    "REPRO-SVC-001": "compilation-service worker failure",
    "REPRO-SVC-002": "service degraded to serial in-process execution (circuit breaker open)",
    "REPRO-SVC-003": "service worker exceeded its per-request deadline",
    "REPRO-SVC-004": "compile daemon rejected the request under back-pressure (queue full)",
    "REPRO-SVC-005": "malformed compile-daemon protocol message",
    "REPRO-LINT-000": "module failed the HLS-compatibility lint gate",
    "REPRO-LINT-001": "lint: 'freeze' instruction survives adaptation",
    "REPRO-LINT-002": "lint: opaque-pointer type survives adaptation",
    "REPRO-LINT-003": "lint: 'poison' constant survives adaptation",
    "REPRO-LINT-004": "lint: non-whitelisted intrinsic call or declaration",
    "REPRO-LINT-005": "lint: struct-typed insertvalue/extractvalue chain",
    "REPRO-LINT-006": "lint: non-canonical GEP shape",
    "REPRO-LINT-007": "lint: missing or modern-dialect loop metadata",
    "REPRO-LINT-008": "lint: interface contract violation on a top function",
    "REPRO-LINT-009": "lint: modern attribute or fast-math spelling",
    "REPRO-LINT-010": "lint: struct-typed SSA register or argument",
    "REPRO-LINT-011": "lint: static-scheduling directives ignored by a dataflow backend",
    "REPRO-LINT-012": "lint: unbanked multi-access buffer serialises a dataflow circuit",
}


@dataclass
class Diagnostic:
    """One attributed diagnostic record."""

    severity: Severity
    code: str
    message: str
    pass_name: Optional[str] = None
    function: Optional[str] = None
    instruction: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def format(self) -> str:
        where = []
        if self.pass_name:
            where.append(f"pass '{self.pass_name}'")
        if self.function:
            where.append(f"@{self.function}")
        if self.instruction:
            where.append(self.instruction)
        location = (" in " + ", ".join(where)) if where else ""
        text = f"{self.severity.name.lower()}[{self.code}]{location}: {self.message}"
        for note in self.notes:
            text += f"\n  note: {note}"
        return text

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.name,
            "code": self.code,
            "message": self.message,
            "pass_name": self.pass_name,
            "function": self.function,
            "instruction": self.instruction,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostic":
        return cls(
            severity=Severity[data.get("severity", "ERROR")],
            code=data.get("code", "REPRO-E000"),
            message=data.get("message", ""),
            pass_name=data.get("pass_name"),
            function=data.get("function"),
            instruction=data.get("instruction"),
            notes=list(data.get("notes", ())),
        )


class DiagnosticEngine:
    """Collects diagnostics and forwards them to registered handlers."""

    def __init__(self, handlers: Optional[List[Callable[[Diagnostic], None]]] = None):
        self.diagnostics: List[Diagnostic] = []
        self.handlers: List[Callable[[Diagnostic], None]] = list(handlers or ())

    # -- emission ---------------------------------------------------------------
    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        if diagnostic.code not in ERROR_CODES:
            raise ValueError(
                f"unknown diagnostic code {diagnostic.code!r}; register it in "
                f"repro.diagnostics.engine.ERROR_CODES"
            )
        self.diagnostics.append(diagnostic)
        for handler in self.handlers:
            handler(diagnostic)
        return diagnostic

    def _emit(self, severity: Severity, code: str, message: str, **where) -> Diagnostic:
        return self.emit(Diagnostic(severity, code, message, **where))

    def note(self, code: str, message: str, **where) -> Diagnostic:
        return self._emit(Severity.NOTE, code, message, **where)

    def warning(self, code: str, message: str, **where) -> Diagnostic:
        return self._emit(Severity.WARNING, code, message, **where)

    def error(self, code: str, message: str, **where) -> Diagnostic:
        return self._emit(Severity.ERROR, code, message, **where)

    def fatal(self, code: str, message: str, **where) -> Diagnostic:
        return self._emit(Severity.FATAL, code, message, **where)

    def attach(self, handler: Callable[[Diagnostic], None]) -> None:
        self.handlers.append(handler)

    # -- queries ----------------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def summary(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.format() for d in self.diagnostics)
