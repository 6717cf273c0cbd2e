"""The compile daemon: coalescing, back-pressure, bit-identity, lifecycle.

Everything runs against a real :class:`CompileDaemon` bound to an
ephemeral localhost port (or a Unix socket), talking the production
NDJSON protocol through real :class:`DaemonClient` connections — no
mocked transport anywhere.
"""

import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.diagnostics.errors import DaemonError
from repro.service import CompileDaemon, DaemonClient
from repro.service.protocol import decode_line, encode_line
from repro.service.service import CompilationService, CompileRequest
from repro.workloads.suite import SUITE_SIZES


@pytest.fixture
def daemon(tmp_path):
    d = CompileDaemon(
        address="127.0.0.1:0", cache_dir=str(tmp_path / "cache"), jobs=1
    )
    d.start()
    yield d
    d.stop()


def request_for(kernel, config="baseline", seed=17, check_equivalence=False):
    return CompileRequest(
        kernel=kernel,
        config=config,
        size_class="MINI",
        check_equivalence=check_equivalence,
        seed=seed,
    )


def semantic(comparison):
    """The content of a FlowComparison, minus provenance (cache_status,
    timings) — what bit-identity means across transports."""
    return {
        "kernel": comparison.kernel,
        "config": comparison.config,
        "backend": comparison.backend,
        "adaptor_latency": comparison.adaptor.latency,
        "adaptor_resources": dict(comparison.adaptor.resources),
        "cpp_latency": comparison.cpp.latency,
        "cpp_resources": dict(comparison.cpp.resources),
        "equivalent": comparison.functionally_equivalent,
        "max_abs_error": comparison.max_abs_error,
        "lint": comparison.lint,
    }


class TestLifecycle:
    def test_ping_reports_liveness(self, daemon):
        with DaemonClient(daemon.address) as client:
            pong = client.ping()
        assert pong["status"] == "ok"
        assert pong["pid"] == os.getpid()
        assert pong["protocol"] == 1

    def test_stats_op_exposes_counters_and_cache(self, daemon):
        with DaemonClient(daemon.address) as client:
            client.compile_batch([request_for("gemm")])
            stats = client.stats()
        assert stats["counters"]["service"]["compiles"] == 1
        assert stats["cache"]["entries"] == 1
        assert stats["cache"]["memory"]["entries"] == 1
        assert stats["depth"] == 0
        assert stats["max_queue"] == 64

    def test_shutdown_op_stops_the_daemon(self, daemon):
        with DaemonClient(daemon.address) as client:
            client.shutdown()
        assert daemon._shutdown.wait(timeout=5)

    def test_stop_leaves_no_threads_or_workers(self, tmp_path):
        d = CompileDaemon(
            address="127.0.0.1:0", cache_dir=str(tmp_path / "cache")
        )
        address = d.start()
        with DaemonClient(address) as client:
            client.compile_batch([request_for("gemm")])
        d.stop()
        assert d._accept_thread is None
        assert not any(t.is_alive() for t in d._handlers)
        assert multiprocessing.active_children() == []
        # The listener is gone (connect-refused is not assertable on
        # loopback: an ephemeral-range port can TCP-self-connect).
        assert d._sock is None

    @pytest.mark.parametrize("kind", ["tcp", "unix"])
    def test_stop_wakes_the_accept_thread(self, tmp_path, kind):
        address = "127.0.0.1:0" if kind == "tcp" else f"unix:{tmp_path / 'd.sock'}"
        d = CompileDaemon(address=address, cache_dir=str(tmp_path / "cache"))
        d.start()
        accept_thread = d._accept_thread
        with DaemonClient(d.address) as client:
            assert client.ping()["status"] == "ok"
        start = time.perf_counter()
        d.stop()
        assert time.perf_counter() - start < 1.0
        assert not accept_thread.is_alive()

    def test_unix_socket_roundtrip_and_unlink(self, tmp_path):
        path = str(tmp_path / "daemon.sock")
        d = CompileDaemon(
            address=f"unix:{path}", cache_dir=str(tmp_path / "cache")
        )
        d.start()
        try:
            assert os.path.exists(path)
            with DaemonClient(f"unix:{path}") as client:
                assert client.ping()["status"] == "ok"
        finally:
            d.stop()
        assert not os.path.exists(path)

    def test_start_is_idempotent(self, daemon):
        assert daemon.start() == daemon.address


class TestProtocolErrors:
    def raw_roundtrip(self, daemon, payload):
        host, port = daemon.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(payload)
            reader = sock.makefile("rb")
            return decode_line(reader.readline())

    def test_garbage_line_yields_svc_005(self, daemon):
        response = self.raw_roundtrip(daemon, b"this is not json\n")
        assert response["status"] == "error"
        assert response["error"]["code"] == "REPRO-SVC-005"
        assert response["id"] == ""

    def test_unknown_op_yields_svc_005(self, daemon):
        response = self.raw_roundtrip(
            daemon, encode_line({"v": 1, "id": "x", "op": "transmogrify"})
        )
        assert response["error"]["code"] == "REPRO-SVC-005"

    def test_wrong_version_yields_svc_005(self, daemon):
        response = self.raw_roundtrip(
            daemon, encode_line({"v": 99, "id": "x", "op": "ping"})
        )
        assert response["error"]["code"] == "REPRO-SVC-005"
        assert daemon.registry.group("daemon")["protocol_errors"] >= 1

    def test_daemon_survives_protocol_errors(self, daemon):
        self.raw_roundtrip(daemon, b"garbage\n")
        with DaemonClient(daemon.address) as client:
            assert client.ping()["status"] == "ok"


class TestCoalescing:
    """The coalescing property: K concurrent identical requests cost
    exactly one compile — ``service.compiles`` is the receipt — and every
    client receives the same result."""

    @pytest.mark.parametrize("seed", [17, 23, 91])
    def test_k_identical_requests_one_compile(self, tmp_path, seed):
        daemon = CompileDaemon(
            address="127.0.0.1:0", cache_dir=str(tmp_path / "cache")
        )
        address = daemon.start()
        clients = 6
        barrier = threading.Barrier(clients)
        results, errors = [None] * clients, []

        def worker(slot):
            try:
                with DaemonClient(address) as client:
                    barrier.wait(timeout=10)
                    report = client.compile_batch(
                        [request_for("gemm", seed=seed)]
                    )
                    results[slot] = report
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        daemon.stop()

        assert not errors
        counters = daemon.registry.group("service")
        # However the race lands (joiners coalesce, stragglers hit the
        # warm cache), the compile itself happened exactly once...
        assert counters["compiles"] == 1
        # ...and every non-owner is accounted for as a join or a hit.
        hits = daemon.registry.group("cache").get("hits", 0)
        assert counters.get("coalesced", 0) + hits == clients - 1
        # All K clients got the same comparison, value for value.
        rendered = [semantic(r.comparisons[0]) for r in results]
        assert all(r == rendered[0] for r in rendered)
        assert all(len(r.comparisons) == 1 for r in results)

    def test_within_batch_duplicates_coalesce(self, daemon):
        with DaemonClient(daemon.address) as client:
            report = client.compile_batch(
                [request_for("atax"), request_for("atax"), request_for("atax")]
            )
        assert len(report.comparisons) == 3
        assert daemon.registry.group("service")["compiles"] == 1
        assert daemon.registry.group("service")["coalesced"] == 2
        rendered = [semantic(c) for c in report.comparisons]
        assert rendered[0] == rendered[1] == rendered[2]

    def test_mixed_backend_batch_matches_in_process(self, tmp_path, daemon):
        """Requests that differ only in backend are distinct compiles: the
        coalescing key is the cache key, backend included."""
        requests = [
            CompileRequest(
                kernel="gemm", config="baseline", size_class="MINI",
                check_equivalence=False, backend=backend,
            )
            for backend in ("static", "dataflow")
        ]
        local = CompilationService(cache_dir=str(tmp_path / "local"))
        local_report = local.compile_batch(requests)
        with DaemonClient(daemon.address) as client:
            remote_report = client.compile_batch(requests)
        assert [c.backend for c in remote_report.comparisons] == [
            "static", "dataflow"
        ]
        assert [semantic(c) for c in remote_report.comparisons] == [
            semantic(c) for c in local_report.comparisons
        ]
        assert daemon.registry.group("service")["compiles"] == 2
        assert daemon.registry.group("service").get("coalesced", 0) == 0
        # Rows cross the wire without the flows' IR modules.
        for row in remote_report.comparisons:
            assert row.adaptor.ir_module is None
            assert row.adaptor.modern_ir_module is None
            assert row.cpp.ir_module is None

    def test_distinct_requests_do_not_coalesce(self, daemon):
        with DaemonClient(daemon.address) as client:
            client.compile_batch(
                [request_for("gemm", seed=1), request_for("gemm", seed=2)]
            )
        assert daemon.registry.group("service")["compiles"] == 2
        assert daemon.registry.group("service").get("coalesced", 0) == 0


class TestBackPressure:
    def test_oversized_batch_rejected_with_svc_004(self, tmp_path):
        daemon = CompileDaemon(
            address="127.0.0.1:0",
            cache_dir=str(tmp_path / "cache"),
            max_queue=1,
        )
        address = daemon.start()
        try:
            with DaemonClient(address) as client:
                with pytest.raises(DaemonError) as excinfo:
                    client.compile_batch(
                        [request_for("gemm"), request_for("atax")]
                    )
                assert "queue full" in str(excinfo.value)
                # Nothing was compiled: rejection is all-or-nothing.
                assert daemon.registry.group("service").get("compiles", 0) == 0
                assert daemon.registry.group("daemon")["rejected"] == 1
                assert daemon.registry.group("daemon")["rejected_requests"] == 2
                # A batch that fits is admitted on the same connection.
                report = client.compile_batch([request_for("gemm")])
                assert len(report.comparisons) == 1
            assert any(
                d.code == "REPRO-SVC-004" for d in daemon.engine.diagnostics
            )
        finally:
            daemon.stop()

    def test_depth_drains_after_batches(self, daemon):
        with DaemonClient(daemon.address) as client:
            client.compile_batch([request_for("gemm")])
            assert client.stats()["depth"] == 0


class TestBitIdentity:
    """The acceptance criterion: a daemon round-trip of the full
    15-kernel suite is bit-identical to in-process ``compile_batch`` —
    same fingerprints on disk, same FlowComparison content."""

    def test_full_suite_matches_in_process(self, tmp_path):
        kernels = list(SUITE_SIZES["MINI"].keys())
        assert len(kernels) == 15
        requests = [request_for(k, check_equivalence=True) for k in kernels]

        local = CompilationService(cache_dir=str(tmp_path / "local"))
        local_report = local.compile_batch(requests, span_name="local")

        daemon = CompileDaemon(
            address="127.0.0.1:0", cache_dir=str(tmp_path / "daemon")
        )
        address = daemon.start()
        try:
            with DaemonClient(address) as client:
                remote_report = client.compile_batch(
                    requests, span_name="remote"
                )
        finally:
            daemon.stop()

        # Same fingerprints: both caches hold exactly the same keys.
        local_keys = {h["key"] for h in local.cache.entry_headers()}
        daemon_keys = {
            h["key"] for h in daemon.service.cache.disk.entry_headers()
        }
        assert local_keys == daemon_keys
        assert len(local_keys) == 15

        # Same results, kernel for kernel, value for value.
        assert len(remote_report.comparisons) == 15
        for mine, theirs in zip(
            local_report.comparisons, remote_report.comparisons
        ):
            assert semantic(mine) == semantic(theirs)
        assert all(
            c.functionally_equivalent for c in remote_report.comparisons
        )
        assert [o.status for o in remote_report.outcomes] == ["ok"] * 15

    def test_service_daemon_routing_matches_direct_client(self, tmp_path):
        """``CompilationService(daemon=ADDR)`` is the same round trip."""
        daemon = CompileDaemon(
            address="127.0.0.1:0", cache_dir=str(tmp_path / "cache")
        )
        address = daemon.start()
        try:
            routed = CompilationService(daemon=address)
            report = routed.compile_batch([request_for("gemm")])
            assert len(report.comparisons) == 1
            assert daemon.registry.group("service")["compiles"] == 1
        finally:
            daemon.stop()
