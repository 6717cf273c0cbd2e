"""Service-level chaos: deterministic worker and cache fault injection.

PR 1's :mod:`repro.testing.fault_injection` stresses the *pass* level
(a pass raises mid-mutation, the guard rolls back).  This module
stresses the *service* level — the machinery
:mod:`repro.service.resilience` exists to survive:

* ``crash`` — the worker raises a plain :class:`ChaosCrash` before
  compiling (an unstructured worker death);
* ``hang`` — the worker sleeps past any reasonable deadline, exercising
  hung-worker detection and pool replacement;
* ``slow`` — the worker is delayed but finishes inside the deadline;
* ``corrupt-cache`` — the worker compiles normally, then flips bytes in
  the entry it just wrote, so the *next* reader exercises the
  ``REPRO-CACHE-001`` corruption-degrades-to-recompile path.

Faults are assigned **deterministically by request fingerprint**: the
profile ranks the batch's fingerprints by ``sha256(seed:fingerprint)``
and hands the first ``crash`` of them a crash plan, the next ``hang`` a
hang plan, and so on.  Two runs of the same batch under the same seed
fault the same requests — CI can assert exact outcome counts.  Faults
fire only on attempts ``<= fault_attempts`` (default 1), so a retrying
policy deterministically turns a crash into ``retried-then-ok``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "CHAOS_FAULTS",
    "ChaosCrash",
    "ChaosProfile",
    "request_fingerprint",
    "apply_chaos",
    "corrupt_entry_file",
    "corrupt_after_write",
]

CHAOS_FAULTS = ("crash", "hang", "slow", "corrupt-cache")


class ChaosCrash(RuntimeError):
    """Deliberately a *plain* RuntimeError: an injected worker death must
    be survivable without any structured-diagnostic cooperation."""


@dataclass(frozen=True)
class ChaosProfile:
    """How many requests of a batch get which fault, under which seed.

    ``hang_seconds`` must comfortably exceed the batch's per-request
    timeout (the parent abandons the sleeper at its deadline);
    ``slow_seconds`` must stay inside it.  ``fault_attempts`` bounds the
    attempts a fault fires on, so retries can recover deterministically.
    """

    seed: int = 0
    crash: int = 0
    hang: int = 0
    slow: int = 0
    corrupt_cache: int = 0
    fault_attempts: int = 1
    hang_seconds: float = 300.0
    slow_seconds: float = 0.2

    def __post_init__(self):
        for name in ("crash", "hang", "slow", "corrupt_cache"):
            if getattr(self, name) < 0:
                raise ValueError(f"chaos count {name} must be >= 0")
        if self.fault_attempts < 1:
            raise ValueError("fault_attempts must be >= 1")

    @property
    def total_faults(self) -> int:
        return self.crash + self.hang + self.slow + self.corrupt_cache

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosProfile":
        """Parse ``"seed=42,crash=1,hang=1,slow=2"`` (keys = field names,
        with ``corrupt-cache`` accepted for ``corrupt_cache``)."""
        field_types = {f.name: f.type for f in fields(cls)}
        kwargs: Dict[str, Any] = {}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(f"chaos term {chunk!r} is not key=value")
            key, _, value = chunk.partition("=")
            key = key.strip().replace("-", "_")
            if key not in field_types:
                raise ValueError(
                    f"unknown chaos key {key!r}; valid: "
                    f"{sorted(field_types)}"
                )
            caster = float if "float" in str(field_types[key]) else int
            try:
                kwargs[key] = caster(value.strip())
            except ValueError:
                raise ValueError(
                    f"chaos value {value!r} for {key!r} is not a number"
                ) from None
        return cls(**kwargs)

    # -- assignment ---------------------------------------------------------
    def rank(self, fingerprint: str) -> str:
        """The deterministic sort key a fingerprint is ordered by."""
        return hashlib.sha256(
            f"{self.seed}:{fingerprint}".encode("utf-8")
        ).hexdigest()

    def assign(self, fingerprints: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Map fingerprints to fault plans (requests left alone get none).

        Plans are plain JSON-able dicts so they ride worker payloads::

            {"fault": "hang", "attempts": 1, "seconds": 300.0}
        """
        ranked = sorted(fingerprints, key=self.rank)
        plans: Dict[str, Dict[str, Any]] = {}
        cursor = 0
        for fault, count in (
            ("crash", self.crash),
            ("hang", self.hang),
            ("slow", self.slow),
            ("corrupt-cache", self.corrupt_cache),
        ):
            for fingerprint in ranked[cursor : cursor + count]:
                plan: Dict[str, Any] = {
                    "fault": fault,
                    "attempts": self.fault_attempts,
                }
                if fault == "hang":
                    plan["seconds"] = self.hang_seconds
                elif fault == "slow":
                    plan["seconds"] = self.slow_seconds
                plans[fingerprint] = plan
            cursor += count
        return plans


def request_fingerprint(
    kernel: str,
    config_signature: str,
    sizes: Optional[Dict[str, int]] = None,
    seed: int = 17,
) -> str:
    """A cheap, stable identity for one batch request.

    Deliberately *not* the cache key (which hashes the kernel's printed
    IR): chaos assignment must not cost a kernel build per request.
    """
    blob = json.dumps(
        {
            "kernel": kernel,
            "config": config_signature,
            "sizes": dict(sorted((sizes or {}).items())),
            "seed": seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fires(plan: Optional[Dict[str, Any]], attempt: int) -> bool:
    return bool(plan) and attempt <= int(plan.get("attempts", 1))


def apply_chaos(plan: Optional[Dict[str, Any]], attempt: int) -> None:
    """Worker-side pre-compile hook: crash, hang, or dawdle per ``plan``.

    ``corrupt-cache`` is a post-compile fault — see
    :func:`corrupt_after_write`.  A hung worker really sleeps; in a
    worker process the parent terminates it at the deadline, so use hang
    plans with ``jobs > 1`` only.
    """
    if not _fires(plan, attempt):
        return
    fault = plan["fault"]
    if fault == "crash":
        raise ChaosCrash(
            f"chaos: injected worker crash (attempt {attempt})"
        )
    if fault in ("hang", "slow"):
        time.sleep(float(plan.get("seconds", 0.0)))


def corrupt_entry_file(path: str) -> bool:
    """Flip the tail byte of a cache entry in place (checksum-breaking)."""
    try:
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        if not data:
            return False
        data[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        return True
    except OSError:
        return False


def corrupt_after_write(
    plan: Optional[Dict[str, Any]], attempt: int, cache, key: str
) -> bool:
    """Worker-side post-compile hook for ``corrupt-cache`` plans: damage
    the entry this compile just stored, so the next reader must degrade
    (``REPRO-CACHE-001``) instead of crashing."""
    if not _fires(plan, attempt) or plan["fault"] != "corrupt-cache":
        return False
    return corrupt_entry_file(cache.entry_path(key))
