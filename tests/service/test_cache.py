"""On-disk compilation cache: correctness, invalidation, corruption."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time

import pytest

from repro.diagnostics import DiagnosticEngine
from repro.diagnostics.errors import CacheError
from repro.flows import OptimizationConfig
from repro.service import CompilationCache, CompilationService, cache_key
from repro.service import fingerprint as fp_mod
from repro.service.tiers import TieredCompilationCache
from repro.workloads.suite import SUITE_SIZES

GEMM_MINI = SUITE_SIZES["MINI"]["gemm"]


@pytest.fixture
def cache(tmp_path):
    return CompilationCache(str(tmp_path / "cache"))


class SlowPickle:
    """A value whose pickling takes at least 20 ms."""

    def __reduce__(self):
        time.sleep(0.02)
        return (SlowPickle, ())


class TestStoreLoad:
    def test_roundtrip(self, cache):
        cache.store("a" * 64, {"x": 1, "y": [1, 2, 3]})
        assert cache.load("a" * 64) == {"x": 1, "y": [1, 2, 3]}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss(self, cache):
        assert cache.load("b" * 64) is None
        assert cache.stats.misses == 1

    def test_contains(self, cache):
        assert not cache.contains("c" * 64)
        cache.store("c" * 64, 42)
        assert cache.contains("c" * 64)

    def test_entries_sharded_by_prefix(self, cache):
        cache.store("ab" + "0" * 62, 1)
        assert os.path.exists(
            os.path.join(cache.shards_dir, "ab", "ab" + "0" * 62 + ".entry")
        )

    def test_manifest_written_alongside_shards(self, cache):
        cache.store("ab" + "0" * 62, 1)
        with open(cache.manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["format"] == fp_mod.CACHE_FORMAT_VERSION
        assert manifest["shard_prefix_len"] == 2

    def test_header_metadata(self, cache):
        cache.store("d" * 64, 7, meta={"kernel": "gemm", "config": "baseline"})
        (header,) = cache.entry_headers()
        assert header["kernel"] == "gemm"
        assert header["config"] == "baseline"
        assert header["key"] == "d" * 64

    @pytest.mark.parametrize("make", [CompilationCache, TieredCompilationCache],
                             ids=["disk", "tiered"])
    def test_store_seconds_include_pickling(self, tmp_path, make):
        cache = make(str(tmp_path / "cache"))
        cache.store("e" * 64, SlowPickle())
        assert cache.stats.stores == 1
        assert cache.stats.store_seconds >= 0.02

    def test_clear_and_disk_stats(self, cache):
        for i in range(3):
            cache.store(f"{i}" * 64, i)
        stats = cache.disk_stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert cache.clear() == 3
        assert cache.disk_stats()["entries"] == 0


class TestCorruption:
    def _store_one(self, cache, key="e" * 64):
        cache.store(key, {"payload": list(range(10))})
        return cache.entry_path(key)

    def test_truncated_payload_degrades_to_miss(self, cache):
        path = self._store_one(cache)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-5])
        assert cache.load("e" * 64) is None
        assert cache.stats.corrupt == 1
        assert not os.path.exists(path), "corrupt entry should be dropped"

    def test_garbage_header_degrades_to_miss(self, cache):
        path = self._store_one(cache)
        with open(path, "wb") as fh:
            fh.write(b"\x00\xffnot json\n garbage")
        assert cache.load("e" * 64) is None
        assert cache.stats.corrupt == 1

    def test_flipped_payload_byte_fails_checksum(self, cache):
        path = self._store_one(cache)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        assert cache.load("e" * 64) is None
        assert cache.stats.corrupt == 1

    def test_unpicklable_payload_degrades_to_miss(self, cache):
        path = self._store_one(cache)
        bogus = b"not a pickle at all"
        import hashlib

        header = {
            "format": fp_mod.CACHE_FORMAT_VERSION,
            "key": "e" * 64,
            "payload_sha256": hashlib.sha256(bogus).hexdigest(),
            "payload_bytes": len(bogus),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + bogus)
        assert cache.load("e" * 64) is None
        assert cache.stats.corrupt == 1

    def test_corruption_emits_diagnostic(self, tmp_path):
        engine = DiagnosticEngine()
        cache = CompilationCache(str(tmp_path), engine=engine)
        path = self._store_one(cache)
        with open(path, "wb") as fh:
            fh.write(b"junk")
        cache.load("e" * 64)
        assert any(d.code == "REPRO-CACHE-001" for d in engine.diagnostics)

    def test_format_version_mismatch_is_miss_with_cache_002(self, tmp_path):
        engine = DiagnosticEngine()
        cache = CompilationCache(str(tmp_path), engine=engine)
        path = self._store_one(cache)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        header["format"] = 999
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + payload)
        assert cache.load("e" * 64) is None
        assert any(d.code == "REPRO-CACHE-002" for d in engine.diagnostics)

    def test_required_load_raises_cache_error(self, cache):
        path = self._store_one(cache)
        with open(path, "wb") as fh:
            fh.write(b"junk")
        with pytest.raises(CacheError):
            cache.load("e" * 64, required=True)


def _race_writer(root, key, barrier, value):
    """Child-process body for the concurrent-writer race (module-level so
    it pickles under any multiprocessing start method)."""
    from repro.service import CompilationCache

    cache = CompilationCache(root)
    barrier.wait()  # maximise write overlap
    cache.store(key, value, meta={"kernel": "race"})


class TestConcurrentWriters:
    """Two processes racing to write the same fingerprint must leave
    exactly one valid checksummed entry (the atomic temp-file +
    ``os.replace`` protocol; last writer wins, no torn files)."""

    KEY = "f" * 64

    def _race(self, root, values):
        barrier = multiprocessing.Barrier(len(values))
        procs = [
            multiprocessing.Process(
                target=_race_writer, args=(root, self.KEY, barrier, value)
            )
            for value in values
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(30)
        assert all(proc.exitcode == 0 for proc in procs)

    def test_identical_writers_leave_one_valid_entry(self, tmp_path):
        root = str(tmp_path / "cache")
        value = {"payload": list(range(50))}
        self._race(root, [value, value])
        cache = CompilationCache(root)
        shard_dir = os.path.dirname(cache.entry_path(self.KEY))
        assert sorted(os.listdir(shard_dir)) == [self.KEY + ".entry"]
        assert cache.verify(self.KEY)
        assert cache.load(self.KEY) == value
        assert cache.stats.corrupt == 0

    def test_divergent_writers_still_one_valid_entry(self, tmp_path):
        # Content-addressing makes divergent payloads under one key a
        # caller bug, but the storage layer must still never tear a file:
        # whichever writer wins, the survivor is checksum-clean.
        root = str(tmp_path / "cache")
        first, second = {"winner": "a"}, {"winner": "b"}
        self._race(root, [first, second])
        cache = CompilationCache(root)
        shard_dir = os.path.dirname(cache.entry_path(self.KEY))
        assert sorted(os.listdir(shard_dir)) == [self.KEY + ".entry"]
        assert not any(
            name.endswith(".tmp") for name in os.listdir(shard_dir)
        ), "temp litter left behind"
        assert cache.verify(self.KEY)
        assert cache.load(self.KEY) in (first, second)

    def test_verify_rejects_corrupt_and_missing(self, cache):
        assert not cache.verify(self.KEY)  # missing
        cache.store(self.KEY, {"x": 1})
        assert cache.verify(self.KEY)
        from repro.testing import corrupt_entry_file

        assert corrupt_entry_file(cache.entry_path(self.KEY))
        assert not cache.verify(self.KEY)
        # verify() is a pure probe: no counters moved, entry not dropped.
        assert cache.stats.corrupt == 0
        assert os.path.exists(cache.entry_path(self.KEY))

    def test_entry_vanishing_mid_read_degrades_to_miss(self, cache, monkeypatch):
        # A concurrent cleaner can unlink between the existence check and
        # the open; that must read as a miss, never an OSError escape.
        monkeypatch.setattr(os.path, "exists", lambda path: True)
        assert cache.load("9" * 64) is None
        assert cache.stats.misses == 1


def test_legacy_flat_tree_is_a_miss(tmp_path):
    """A pre-sharding ``entries/`` tree is never read: the cache starts
    cold, says nothing, and leaves the old files alone."""
    root = tmp_path / "cache"
    key = "ab" + "0" * 62
    legacy = root / "entries" / "ab" / (key + ".entry")
    legacy.parent.mkdir(parents=True)
    legacy.write_bytes(b'{"format": 3}\n')
    engine = DiagnosticEngine()
    cache = CompilationCache(str(root), engine=engine)
    assert cache.load(key) is None
    assert cache.stats.misses == 1
    assert not engine.diagnostics
    assert legacy.exists()


class TestServiceLevelCorruption:
    def test_corrupt_entry_recompiles_never_crashes(self, tmp_path):
        service = CompilationService(cache_dir=str(tmp_path))
        first = service.compile_one("gemm", "baseline", sizes=GEMM_MINI)
        assert first.cache_status == "miss"
        key = cache_key(
            "gemm", GEMM_MINI, OptimizationConfig.baseline(),
            device=service.device, check_equivalence=True, seed=17,
        )
        path = service.cache.entry_path(key)
        assert os.path.exists(path)
        with open(path, "wb") as fh:
            fh.write(b"\x00corrupted beyond recognition")
        again = service.compile_one("gemm", "baseline", sizes=GEMM_MINI)
        assert again.cache_status == "miss"  # recompiled, not crashed
        assert again.row() == first.row()
        assert any(
            d.code == "REPRO-CACHE-001" for d in service.engine.diagnostics
        )
        # The recompile re-stored a clean entry: third run is a hit.
        third = service.compile_one("gemm", "baseline", sizes=GEMM_MINI)
        assert third.cache_status == "hit"
