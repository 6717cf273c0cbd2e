"""Content-addressed on-disk compilation cache (sharded segment layout).

Layout (under the cache root)::

    <root>/
      cache-meta.json               layout manifest (version, shard prefix)
      shards/<k[:2]>/<k>.entry      one file per cached FlowComparison,
                                    segmented by fingerprint prefix

Each entry file is a one-line JSON header followed by a pickled payload::

    {"format": 5, "key": ..., "shard": "ab", "kernel": ..., "config": ...,
     "payload_sha256": ..., "payload_bytes": N}\\n
    <pickle bytes>

The header carries its own payload checksum, so *any* corruption — a
truncated write, bit rot, a stale-format entry, an unpicklable payload —
is detected on load and degrades to a miss with a ``REPRO-CACHE-*``
diagnostic instead of crashing the caller.  Writes go through a temp file
and ``os.replace`` so concurrent workers never observe half-written
entries; last-writer-wins races are harmless because entries are
content-addressed (both writers wrote the same comparison).

Caches from before format 4 kept a flat ``entries/`` tree; nothing reads
it, so such a root is simply cold.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..diagnostics.engine import DiagnosticEngine
from ..diagnostics.errors import CacheError
from ..observability import get_statistics, get_tracer
from .fingerprint import CACHE_FORMAT_VERSION

__all__ = [
    "CacheStats",
    "CompilationCache",
    "default_cache_dir",
    "SHARD_PREFIX_LEN",
]

#: Fingerprint-prefix length naming a shard segment: 2 hex chars = 256
#: segments, keeping per-directory entry counts flat under load.
SHARD_PREFIX_LEN = 2

_MANIFEST_NAME = "cache-meta.json"
#: Bump when the directory layout (not the entry format) changes.
_LAYOUT_VERSION = 2


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.getcwd(), ".repro-cache")


@dataclass
class CacheStats:
    """Hit/miss/timing counters for one cache handle.

    The ``mem_*`` fields are only moved by the tiered stack
    (:class:`repro.service.tiers.TieredCompilationCache`); a memory-tier
    hit is counted in both ``hits`` and ``mem_hits``, so ``hits -
    mem_hits`` is the disk tier's share.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    hit_seconds: float = 0.0
    store_seconds: float = 0.0
    mem_hits: int = 0
    mem_stores: int = 0
    mem_evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.corrupt += other.corrupt
        self.hit_seconds += other.hit_seconds
        self.store_seconds += other.store_seconds
        self.mem_hits += other.mem_hits
        self.mem_stores += other.mem_stores
        self.mem_evictions += other.mem_evictions

    def summary(self) -> str:
        # A batch report counts from its rows and knows no corruption or
        # store time, so fields at zero stay out of the line.
        text = (
            f"{self.hits} hit(s) / {self.misses} miss(es) "
            f"({self.hit_rate:.0%} hit rate), {self.stores} store(s)"
        )
        if self.corrupt:
            text += f", {self.corrupt} corrupt"
        if self.hit_seconds:
            text += f", load {self.hit_seconds * 1e3:.1f} ms"
        if self.store_seconds:
            text += f", store {self.store_seconds * 1e3:.1f} ms"
        if self.mem_hits or self.mem_evictions:
            text += (
                f"; mem tier {self.mem_hits} hit(s), "
                f"{self.mem_evictions} eviction(s)"
            )
        return text


class CompilationCache:
    """Content-addressed pickle cache keyed by :func:`repro.service.cache_key`.

    ``engine`` receives a ``REPRO-CACHE-001`` warning whenever a corrupted
    entry is dropped (``REPRO-CACHE-002`` for format-version mismatches —
    both degrade to a miss).
    """

    ENTRY_SUFFIX = ".entry"

    def __init__(self, root: Optional[str] = None, engine: Optional[DiagnosticEngine] = None):
        self.root = root or default_cache_dir()
        self.engine = engine or DiagnosticEngine()
        self.stats = CacheStats()
        self._manifest_written = False

    # -- paths --------------------------------------------------------------
    @property
    def shards_dir(self) -> str:
        return os.path.join(self.root, "shards")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST_NAME)

    def shard_for(self, key: str) -> str:
        return key[:SHARD_PREFIX_LEN]

    def entry_path(self, key: str) -> str:
        return os.path.join(self.shards_dir, self.shard_for(key), key + self.ENTRY_SUFFIX)

    def _iter_entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.shards_dir):
            return
        for shard in sorted(os.listdir(self.shards_dir)):
            shard_dir = os.path.join(self.shards_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(self.ENTRY_SUFFIX):
                    yield os.path.join(shard_dir, name)

    def _write_manifest(self) -> None:
        if self._manifest_written:
            return
        manifest = {
            "layout": _LAYOUT_VERSION,
            "format": CACHE_FORMAT_VERSION,
            "shard_prefix_len": SHARD_PREFIX_LEN,
        }
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.manifest_path)
            self._manifest_written = True
        except OSError:
            pass  # the manifest is advisory; entries self-describe

    # -- store --------------------------------------------------------------
    def store(self, key: str, value: Any, meta: Optional[Dict[str, Any]] = None) -> str:
        """Atomically persist ``value`` under ``key``; returns the path.
        ``stats.store_seconds`` times the whole call, pickling included."""
        start = time.perf_counter()
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.store_payload(key, payload, meta)
        self.stats.store_seconds += time.perf_counter() - start
        return path

    def store_payload(
        self, key: str, payload: bytes, meta: Optional[Dict[str, Any]] = None
    ) -> str:
        """Persist an already-pickled ``payload`` (the tiered cache pickles
        once and shares the bytes between memory and disk tiers).  Not
        timed: the caller that pickled ``payload`` adds the whole store
        to ``stats.store_seconds``."""
        with get_tracer().span("cache-store", category="cache", key=key[:12]):
            return self._store(key, payload, meta)

    def _store(self, key: str, payload: bytes, meta: Optional[Dict[str, Any]]) -> str:
        header = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "shard": self.shard_for(key),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
        }
        header.update(meta or {})
        self._write_manifest()
        path = self._write_entry(self.entry_path(key), header, payload)
        self.stats.stores += 1
        get_statistics().bump("cache", "stores")
        return path

    def _write_entry(self, path: str, header: Dict[str, Any], payload: bytes) -> str:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
                fh.write(b"\n")
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    # -- load ---------------------------------------------------------------
    def _read_entry(self, path: str) -> Tuple[Dict[str, Any], Any]:
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
                payload = fh.read()
        except OSError as exc:
            # A concurrent writer/cleaner can unlink the entry between the
            # caller's existence check and this open: that is a miss, not
            # corruption, but both degrade the same way.
            raise CacheError(f"cache entry {path} vanished mid-read: {exc}", path=path)
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CacheError(f"unreadable cache header in {path}: {exc}", path=path)
        if not isinstance(header, dict):
            raise CacheError(f"malformed cache header in {path}", path=path)
        if header.get("payload_bytes") != len(payload) or (
            header.get("payload_sha256") != hashlib.sha256(payload).hexdigest()
        ):
            raise CacheError(f"cache entry {path} failed checksum", path=path)
        if header.get("format") != CACHE_FORMAT_VERSION:
            raise CacheError(
                f"cache entry {path} has format {header.get('format')!r}, "
                f"expected {CACHE_FORMAT_VERSION}",
                path=path,
            )
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            raise CacheError(f"cache entry {path} failed to unpickle: {exc}", path=path)
        return header, value

    def load(self, key: str, required: bool = False) -> Optional[Any]:
        """Return the cached value, or ``None`` on miss.

        Corruption degrades to a miss (the broken entry is dropped and a
        diagnostic emitted) unless ``required=True``, in which case the
        :class:`repro.diagnostics.CacheError` propagates.
        """
        start = time.perf_counter()
        registry = get_statistics()
        path = self.entry_path(key)
        with get_tracer().span("cache-load", category="cache", key=key[:12]) as span:
            if not os.path.exists(path):
                self.stats.misses += 1
                registry.bump("cache", "misses")
                span.set(outcome="miss")
                return None
            try:
                header, value = self._read_entry(path)
            except CacheError as exc:
                code = (
                    "REPRO-CACHE-002"
                    if "format" in exc.message and "expected" in exc.message
                    else "REPRO-CACHE-001"
                )
                self.engine.warning(code, f"{exc.message}; recompiling")
                self.stats.corrupt += 1
                self.stats.misses += 1
                registry.bump("cache", "corrupt")
                registry.bump("cache", "misses")
                span.set(outcome="corrupt")
                try:
                    os.unlink(path)
                except OSError:
                    pass
                if required:
                    raise
                return None
            self.stats.hits += 1
            self.stats.hit_seconds += time.perf_counter() - start
            registry.bump("cache", "hits")
            span.set(outcome="hit")
        return value

    def contains(self, key: str) -> bool:
        return os.path.exists(self.entry_path(key))

    def verify(self, key: str) -> bool:
        """True iff ``key`` has an on-disk entry that reads back clean
        (header parses, format matches, checksum and pickle hold).  Never
        mutates state or counters — this is the audit probe the
        concurrent-writer and chaos tests use."""
        path = self.entry_path(key)
        if not os.path.exists(path):
            return False
        try:
            self._read_entry(path)
        except CacheError:
            return False
        return True

    # -- maintenance --------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._iter_entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def disk_stats(self) -> Dict[str, Any]:
        """Entry count, byte footprint and shard spread of the store."""
        entries = 0
        total = 0
        shards: Dict[str, int] = {}
        for path in self._iter_entry_paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
            entries += 1
            shard = os.path.basename(os.path.dirname(path))
            shards[shard] = shards.get(shard, 0) + 1
        return {
            "root": self.root,
            "layout": _LAYOUT_VERSION,
            "entries": entries,
            "bytes": total,
            "shard_count": len(shards),
            "shards": shards,
        }

    def entry_headers(self) -> List[Dict[str, Any]]:
        """The JSON headers of every readable entry (for ``cache stats``)."""
        out = []
        for path in self._iter_entry_paths():
            try:
                with open(path, "rb") as fh:
                    out.append(json.loads(fh.readline().decode("utf-8")))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                continue
        return out
