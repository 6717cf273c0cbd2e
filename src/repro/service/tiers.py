"""Multi-tier compilation cache: hot in-memory LRU over the sharded disk
store.

Layering (fastest first)::

    MemoryTier            bounded LRU of *pickled payloads* (entries+bytes)
      |  miss / promote-on-hit
    CompilationCache      sharded, checksummed, atomic on-disk segments

The memory tier deliberately stores the pickled payload bytes, not the
live object: every hit deserialises a *fresh* object, so two concurrent
daemon requests can never observe each other's mutations of a shared
``FlowComparison`` (cache provenance stamps, wire encoding), and the
byte accounting against ``max_bytes`` is exact.  The price — one
``pickle.loads`` per memory hit — is still far below a disk hit, which
pays the open/read/sha256/loads sequence.

Every store writes through to disk, so eviction from the memory tier
never loses data: an evicted key is simply served by the disk tier (and
re-promoted) on its next lookup.

Per-tier accounting goes two places:

* :class:`repro.service.cache.CacheStats` on the handle —
  ``mem_hits`` / ``mem_stores`` / ``mem_evictions`` alongside the
  existing overall hit/miss counters (a memory hit is still a ``hit``);
* ambient :mod:`repro.observability` counters — ``cache.mem_hits``,
  ``cache.mem_misses``, ``cache.mem_evictions``, ``cache.mem_stores``
  next to the disk tier's ``cache.hits``/``cache.misses``/…
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from ..diagnostics.engine import DiagnosticEngine
from ..observability import get_statistics, get_tracer
from .cache import CompilationCache

__all__ = ["MemoryTier", "TieredCompilationCache"]


class MemoryTier:
    """Bounded, thread-safe LRU map of cache key -> pickled payload bytes.

    Both bounds are hard invariants after every operation:

    * ``len(tier) <= max_entries``
    * ``tier.bytes <= max_bytes``

    A payload larger than ``max_bytes`` on its own is refused outright
    (returned evictions list is empty, the tier is untouched) — caching
    it would require evicting everything for one entry.
    """

    def __init__(self, max_entries: int = 256, max_bytes: int = 256 << 20):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self.evictions = 0
        self.refused = 0

    # -- core ---------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """The payload for ``key`` (refreshing its recency), or ``None``."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
            return payload

    def put(self, key: str, payload: bytes) -> List[str]:
        """Insert/refresh ``key``; returns the keys evicted to make room."""
        evicted: List[str] = []
        with self._lock:
            if len(payload) > self.max_bytes:
                self.refused += 1
                return evicted
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = payload
            self._bytes += len(payload)
            while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
                victim, victim_payload = self._entries.popitem(last=False)
                self._bytes -= len(victim_payload)
                self.evictions += 1
                evicted.append(victim)
        return evicted

    def invalidate(self, key: str) -> bool:
        with self._lock:
            payload = self._entries.pop(key, None)
            if payload is None:
                return False
            self._bytes -= len(payload)
            return True

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            return count

    # -- introspection ------------------------------------------------------
    @property
    def bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[str]:
        """Keys in eviction order (least- to most-recently used)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "evictions": self.evictions,
                "refused": self.refused,
            }


class TieredCompilationCache:
    """Memory-LRU tier in front of the sharded on-disk store.

    Drop-in for :class:`CompilationCache` where the service and the
    daemon consume it (``load``/``store``/``contains``/``verify``/
    ``clear``/``entry_path``/``disk_stats``/``entry_headers``/``stats``),
    so callers — including the chaos corruption hooks, which address
    entries by path — keep working unchanged.

    ``stats`` is shared with the disk tier's handle, extended with the
    ``mem_*`` counters, so one :class:`CacheStats` describes the whole
    stack.  Disk-tier corruption semantics are unchanged; note that a
    key resident in the memory tier is served from memory even if its
    disk entry has been corrupted since — the memory copy was written
    by a verified store and is authoritative for this process.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        engine: Optional[DiagnosticEngine] = None,
        mem_entries: int = 256,
        mem_bytes: int = 256 << 20,
    ):
        self.disk = CompilationCache(root, engine=engine)
        self.mem = MemoryTier(max_entries=mem_entries, max_bytes=mem_bytes)
        self.stats = self.disk.stats  # one CacheStats for the whole stack

    # -- passthroughs the rest of the stack relies on -----------------------
    @property
    def root(self) -> str:
        return self.disk.root

    @property
    def engine(self) -> DiagnosticEngine:
        return self.disk.engine

    def entry_path(self, key: str) -> str:
        return self.disk.entry_path(key)

    def verify(self, key: str) -> bool:
        return self.disk.verify(key)

    def disk_stats(self) -> Dict[str, Any]:
        stats = self.disk.disk_stats()
        stats["memory"] = self.mem.stats()
        return stats

    def entry_headers(self) -> List[Dict[str, Any]]:
        return self.disk.entry_headers()

    # -- tiered operations --------------------------------------------------
    def load(self, key: str, required: bool = False) -> Optional[Any]:
        registry = get_statistics()
        payload = self.mem.get(key)
        if payload is not None:
            with get_tracer().span(
                "cache-load", category="cache", key=key[:12], tier="mem"
            ):
                value = pickle.loads(payload)
            self.stats.hits += 1
            self.stats.mem_hits += 1
            registry.bump("cache", "hits")
            registry.bump("cache", "mem_hits")
            return value
        registry.bump("cache", "mem_misses")
        value = self.disk.load(key, required=required)
        if value is not None:
            # Promote the disk hit so the next lookup is a memory hit.
            self._remember(key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        return value

    def store(self, key: str, value: Any, meta: Optional[Dict[str, Any]] = None) -> str:
        start = time.perf_counter()
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.disk.store_payload(key, payload, meta)
        self._remember(key, payload)
        self.stats.store_seconds += time.perf_counter() - start
        return path

    def _remember(self, key: str, payload: bytes) -> None:
        registry = get_statistics()
        evicted = self.mem.put(key, payload)
        self.stats.mem_stores += 1
        registry.bump("cache", "mem_stores")
        if evicted:
            self.stats.mem_evictions += len(evicted)
            registry.bump("cache", "mem_evictions", len(evicted))

    def contains(self, key: str) -> bool:
        return key in self.mem or self.disk.contains(key)

    def invalidate(self, key: str) -> None:
        """Drop ``key`` from the memory tier (disk entry untouched)."""
        self.mem.invalidate(key)

    def clear(self) -> int:
        self.mem.clear()
        return self.disk.clear()
