"""LLVM ``-stats``-style named counters, aggregated across a whole run.

Every pass already reports per-run rewrite details through
:class:`repro.ir.transforms.PassStatistics`; this registry is the *global*
view — counters keyed ``(group, name)`` where the group is usually a pass
name (``gep-canonicalize``) or a subsystem (``cache``, ``interpreter``,
``module``) — so one compilation's work is inspectable as a single table,
LLVM ``-stats`` style.

Like the tracer, the registry is ambient (:func:`get_statistics` /
:func:`use_statistics`) and defaults to a no-op
:data:`NULL_STATISTICS`, keeping instrumented code free when nobody asked
for counters.  Only nonzero amounts are recorded, so "this pass did no
work" reads as *no counters at all* — the property the no-op pass tests
assert.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Tuple

__all__ = [
    "StatisticsRegistry",
    "NullStatistics",
    "NULL_STATISTICS",
    "get_statistics",
    "use_statistics",
]


class StatisticsRegistry:
    """Nested ``group -> counter -> int`` accumulator.

    Thread-safe: the compile daemon shares one registry across all its
    connection-handler threads, so every mutation and snapshot goes
    through an internal lock.  (The lock is uncontended in the common
    single-threaded case; ``bump`` stays cheap.)
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[str, int]] = {}
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------
    def bump(self, group: str, name: str, amount: int = 1) -> None:
        if not amount:
            return
        with self._lock:
            bucket = self._counters.setdefault(group, {})
            bucket[name] = bucket.get(name, 0) + amount

    def record_details(self, group: str, details: Dict[str, int]) -> None:
        """Bulk-record a pass's detail dict under its group."""
        for name, amount in details.items():
            self.bump(group, name, amount)

    def merge(self, counters: Dict[str, Dict[str, int]]) -> None:
        """Fold in another registry's :meth:`as_dict` (worker results)."""
        for group, bucket in counters.items():
            for name, amount in bucket.items():
                self.bump(group, name, amount)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()

    # -- queries ------------------------------------------------------------
    def get(self, group: str, name: str, default: int = 0) -> int:
        with self._lock:
            return self._counters.get(group, {}).get(name, default)

    def group(self, group: str) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters.get(group, {}))

    def groups(self) -> List[str]:
        with self._lock:
            return sorted(self._counters)

    def items(self) -> Iterator[Tuple[str, str, int]]:
        snapshot = self.as_dict()
        for group in sorted(snapshot):
            for name in sorted(snapshot[group]):
                yield group, name, snapshot[group][name]

    def total(self, group: str) -> int:
        with self._lock:
            return sum(self._counters.get(group, {}).values())

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            return {g: dict(b) for g, b in self._counters.items()}

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._counters.values())

    # -- rendering ----------------------------------------------------------
    def summary(self, title: str = "Statistics Collected") -> str:
        """The classic LLVM ``-stats`` table: value, group, counter."""
        rows = list(self.items())
        if not rows:
            return f"=== {title} ===\n(no counters recorded)"
        width = max(len(str(v)) for _, _, v in rows)
        group_width = max(len(g) for g, _, _ in rows)
        lines = [f"=== {title} ==="]
        for group, name, value in rows:
            lines.append(f"{value:>{width}} {group:<{group_width}} - {name}")
        return "\n".join(lines)


class NullStatistics(StatisticsRegistry):
    """No-op registry installed by default."""

    enabled = False

    def bump(self, group: str, name: str, amount: int = 1) -> None:
        pass

    def record_details(self, group: str, details: Dict[str, int]) -> None:
        pass

    def merge(self, counters: Dict[str, Dict[str, int]]) -> None:
        pass


NULL_STATISTICS = NullStatistics()

_ACTIVE_STATISTICS: ContextVar[StatisticsRegistry] = ContextVar(
    "repro_active_statistics", default=NULL_STATISTICS
)


def get_statistics() -> StatisticsRegistry:
    """The ambient counter registry (no-op by default)."""
    return _ACTIVE_STATISTICS.get()


@contextmanager
def use_statistics(registry: StatisticsRegistry):
    """Install ``registry`` as the ambient statistics sink for the block."""
    token = _ACTIVE_STATISTICS.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_STATISTICS.reset(token)
