"""Crash reproducers: replayable records of a pass failure.

When a guarded pass manager sees a pass fail (either the pass raised, or
the post-pass verifier rejected its output), it rolls the module back and
writes one of these to disk.  The file is a single JSON document holding

* the **pre-pass IR** in the textual form the existing printer emits (the
  same text the parser round-trips),
* the **remaining pipeline spec** — the failing pass first, then every
  pass that had not yet run,
* the **diagnostic** that was raised, and
* side-table info the textual IR does not carry (HLS interface/memref
  bookkeeping) so a replay starts from the same state.

``repro.diagnostics.replay`` reruns a reproducer and checks it reaches the
same diagnostic; rerunning after a fix shows the failure is gone.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .engine import Diagnostic

__all__ = [
    "CrashReproducer",
    "default_reproducer_dir",
    "emit_reproducer",
]

REPRODUCER_VERSION = 1


def default_reproducer_dir() -> str:
    """``$REPRO_CRASH_DIR`` if set, else a stable dir under the tempdir."""
    env = os.environ.get("REPRO_CRASH_DIR")
    if env:
        return env
    return os.path.join(tempfile.gettempdir(), "repro-crashes")


@dataclass
class CrashReproducer:
    """Everything needed to replay one pass failure."""

    kind: str  # "ir" | "mlir"
    pipeline: List[str]  # failing pass first, then the not-yet-run tail
    failing_pass: str
    diagnostic: Diagnostic
    module_text: str
    function_info: Dict[str, dict] = field(default_factory=dict)
    version: int = REPRODUCER_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "kind": self.kind,
                "pipeline": list(self.pipeline),
                "failing_pass": self.failing_pass,
                "diagnostic": self.diagnostic.to_dict(),
                "function_info": self.function_info,
                "module": self.module_text,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "CrashReproducer":
        data = json.loads(text)
        return cls(
            kind=data["kind"],
            pipeline=list(data["pipeline"]),
            failing_pass=data["failing_pass"],
            diagnostic=Diagnostic.from_dict(data["diagnostic"]),
            module_text=data["module"],
            function_info=dict(data.get("function_info", {})),
            version=int(data.get("version", REPRODUCER_VERSION)),
        )

    def save(self, path: str) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            f.write(self.to_json())
        return path

    @classmethod
    def load(cls, path: str) -> "CrashReproducer":
        from .errors import ReplayError

        try:
            with open(path) as f:
                text = f.read()
            return cls.from_json(text)
        except (OSError, ValueError, KeyError) as exc:
            raise ReplayError(
                f"cannot load crash reproducer {path!r}: {exc}"
            ) from exc


def emit_reproducer(
    reproducer: CrashReproducer, directory: Optional[str] = None
) -> str:
    """Write ``reproducer`` to ``directory`` and return the file path.

    The filename is content-addressed (pass name + module-text digest) so
    repeated failures of the same input overwrite rather than accumulate.
    """
    directory = directory or default_reproducer_dir()
    digest = hashlib.sha1(
        (reproducer.module_text + "|".join(reproducer.pipeline)).encode()
    ).hexdigest()[:12]
    safe_pass = reproducer.failing_pass.replace("/", "_")
    filename = f"{reproducer.kind}-{safe_pass}-{digest}.repro.json"
    return reproducer.save(os.path.join(directory, filename))
