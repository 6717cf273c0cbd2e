"""The long-running compile daemon.

``python -m repro serve`` turns the batch service into
compilation-as-a-service: a :class:`CompileDaemon` listens on localhost
TCP or a Unix socket, speaks the NDJSON protocol from
:mod:`repro.service.protocol`, and runs every batch through one shared
:class:`CompilationService` — same cache, same
:class:`~repro.service.resilience.FailurePolicy` machinery, same results
as an in-process :meth:`~CompilationService.compile_batch`.

What the daemon adds over the one-shot service:

* **A hot cache.**  The service handle lives as long as the daemon, so
  it carries the in-memory LRU tier
  (:class:`~repro.service.tiers.TieredCompilationCache`): repeat
  requests are served from memory without touching disk.
* **Request coalescing.**  In-flight compiles are registered by their
  cache key (:meth:`CompilationService.request_key`, so requests that
  differ in backend, config, sizes, seed or equivalence never share a
  compile); a request whose key is already compiling *joins* that
  compile instead of starting its own.  N concurrent identical
  requests cost exactly one ``compare_flows`` run (the
  ``service.compiles`` counter is the receipt; joiners bump
  ``service.coalesced``).
* **Back-pressure.**  Admission is bounded: when admitted-but-unfinished
  requests would exceed ``max_queue``, the batch is rejected outright
  with ``REPRO-SVC-004`` — the queue never grows unboundedly, and the
  client knows to back off (nothing was partially compiled).

Thread model: one accept thread, one handler thread per connection,
handler threads run requests under the daemon's shared (thread-safe)
:class:`~repro.observability.StatisticsRegistry`.  Worker *processes*
only exist inside a batch (``jobs > 1``) and are torn down with it, so a
clean daemon shutdown leaves no orphans.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..diagnostics.engine import DiagnosticEngine
from ..diagnostics.errors import ProtocolError
from ..observability import StatisticsRegistry, use_statistics
from .protocol import (
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    error_response,
    policy_from_wire,
    report_to_wire,
    request_from_wire,
    validate_request,
)
from .resilience import FailurePolicy, RequestOutcome
from .service import CompilationService, SuiteReport

__all__ = ["CompileDaemon", "parse_address", "format_address"]


def parse_address(address: str) -> Tuple[str, Any]:
    """``("tcp", (host, port))`` or ``("unix", path)`` for an address
    string.

    Accepted spellings: ``host:port``, a bare ``:port`` / ``port``
    (localhost), ``unix:/path/to.sock``, or any string containing a path
    separator (treated as a Unix socket path).
    """
    if address.startswith("unix:"):
        return "unix", address[len("unix:"):]
    if os.sep in address or address.startswith("."):
        return "unix", address
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = "", address
    if not port.isdigit():
        raise ProtocolError(
            f"unintelligible daemon address {address!r}; expected "
            f"host:port, :port, or unix:/path.sock"
        )
    return "tcp", (host or "127.0.0.1", int(port))


def format_address(kind: str, value: Any) -> str:
    if kind == "unix":
        return f"unix:{value}"
    host, port = value
    return f"{host}:{port}"


class _Inflight:
    """One in-progress compile, registered by fingerprint so duplicate
    requests can join it instead of compiling again."""

    __slots__ = ("event", "comparison", "outcome", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.comparison = None
        self.outcome: Optional[RequestOutcome] = None
        self.error: Optional[BaseException] = None


class CompileDaemon:
    """Socket front-end over one shared, memory-tiered CompilationService.

    ``max_queue`` bounds admitted-but-unfinished requests across all
    connections; ``mem_entries``/``mem_bytes`` size the hot LRU tier.
    ``start()`` binds and serves in background threads (``address`` then
    names the live endpoint, useful with ``port=0``);
    ``serve_forever()`` blocks until a ``shutdown`` op or :meth:`stop`.
    """

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        device: str = "xc7z020",
        engine: Optional[DiagnosticEngine] = None,
        policy: Optional[FailurePolicy] = None,
        chaos=None,
        max_queue: int = 64,
        mem_entries: int = 256,
        mem_bytes: int = 256 << 20,
    ):
        self.engine = engine or DiagnosticEngine()
        self.registry = StatisticsRegistry()
        self.service = CompilationService(
            cache_dir=cache_dir,
            jobs=jobs,
            device=device,
            engine=self.engine,
            policy=policy,
            chaos=chaos,
            mem_entries=mem_entries,
            mem_bytes=mem_bytes,
        )
        self.max_queue = max_queue
        self._kind, self._bind_value = parse_address(address)
        self._sock: Optional[socket.socket] = None
        self.address: Optional[str] = None
        self._shutdown = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._handlers_lock = threading.Lock()
        # Coalescing + admission state, shared across handler threads.
        self._inflight: Dict[str, _Inflight] = {}
        self._state_lock = threading.Lock()
        self._depth = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> str:
        """Bind, listen, and serve in the background; returns the live
        address (with the kernel-assigned port resolved when ``port=0``)."""
        if self._sock is not None:
            return self.address  # already started
        if self._kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(self._bind_value)
            except OSError:
                pass
            sock.bind(self._bind_value)
            self.address = format_address("unix", self._bind_value)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(self._bind_value)
            self.address = format_address("tcp", sock.getsockname())
        sock.listen(128)
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(sock,),
            name="repro-daemon-accept", daemon=True,
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """:meth:`start` + block until shutdown is requested."""
        self.start()
        try:
            self._shutdown.wait()
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop accepting, drain handler threads, close the socket."""
        self._shutdown.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            # close() alone leaves a thread blocked in accept() asleep;
            # shutdown() wakes it (accept() then fails).  Platforms that
            # refuse shutdown() on a listener fall back to the join timeout.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        with self._handlers_lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join(timeout=30)
        if self._kind == "unix":
            try:
                os.unlink(self._bind_value)
            except OSError:
                pass

    # -- accept / per-connection loops ---------------------------------------
    def _accept_loop(self, sock: socket.socket) -> None:
        # ``sock`` is this loop's own reference: stop() clears ``_sock``.
        while not self._shutdown.is_set():
            try:
                conn, _ = sock.accept()
            except OSError:
                return  # listener shut down by stop()
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name="repro-daemon-conn", daemon=True,
            )
            with self._handlers_lock:
                self._handlers = [t for t in self._handlers if t.is_alive()]
                self._handlers.append(thread)
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        self.registry.bump("daemon", "connections")
        # Handler threads are fresh threads: the ambient registry must be
        # (re-)installed here or service counters land in NULL_STATISTICS.
        with use_statistics(self.registry), conn:
            reader = conn.makefile("rb")
            try:
                for line in reader:
                    if not line.strip():
                        continue
                    response = self._dispatch(line)
                    try:
                        conn.sendall(encode_line(response))
                    except OSError:
                        return  # client went away mid-response
                    if response.get("op") == "shutdown":
                        self._shutdown.set()
                        return
            finally:
                reader.close()

    # -- dispatch ------------------------------------------------------------
    def _dispatch(self, line: bytes) -> Dict[str, Any]:
        try:
            message = validate_request(decode_line(line))
        except ProtocolError as exc:
            self.engine.warning("REPRO-SVC-005", exc.message)
            self.registry.bump("daemon", "protocol_errors")
            return error_response(
                "", "compile", "error", "REPRO-SVC-005", exc.message
            )
        self.registry.bump("daemon", "requests")
        op = message["op"]
        if op == "ping":
            return {
                "v": PROTOCOL_VERSION,
                "id": message["id"],
                "op": "ping",
                "status": "ok",
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
            }
        if op == "stats":
            return {
                "v": PROTOCOL_VERSION,
                "id": message["id"],
                "op": "stats",
                "status": "ok",
                "stats": self.stats(),
            }
        if op == "shutdown":
            return {
                "v": PROTOCOL_VERSION,
                "id": message["id"],
                "op": "shutdown",
                "status": "ok",
            }
        return self._handle_compile(message)

    def stats(self) -> Dict[str, Any]:
        with self._state_lock:
            inflight = len(self._inflight)
            depth = self._depth
        return {
            "counters": self.registry.as_dict(),
            "cache": self.service.cache.disk_stats(),
            "inflight": inflight,
            "depth": depth,
            "max_queue": self.max_queue,
            "jobs": self.service.jobs,
        }

    # -- compile: admission, coalescing, execution ---------------------------
    def _fingerprint(self, request) -> str:
        """The coalescing key of a *resolved* request: its cache key."""
        return self.service.request_key(
            request.kernel,
            request.sizes,
            request.config,
            request.check_equivalence,
            request.seed,
            request.backend,
        )

    def _handle_compile(self, message: Dict[str, Any]) -> Dict[str, Any]:
        requests = [request_from_wire(w) for w in message["requests"]]
        policy = policy_from_wire(message.get("policy")) or self.service.policy
        # Admission control: reject the whole batch rather than queue
        # past the bound.  All-or-nothing keeps the contract simple —
        # a rejected batch compiled *nothing* and is safe to retry.
        with self._state_lock:
            if self._depth + len(requests) > self.max_queue:
                depth = self._depth
                admitted = False
            else:
                self._depth += len(requests)
                admitted = True
        if not admitted:
            detail = (
                f"queue full: {depth} request(s) in flight, batch of "
                f"{len(requests)} exceeds max_queue={self.max_queue}; "
                f"retry after in-flight work drains"
            )
            self.engine.warning("REPRO-SVC-004", detail)
            self.registry.bump("daemon", "rejected")
            self.registry.bump("daemon", "rejected_requests", len(requests))
            return error_response(
                message["id"], "compile", "rejected", "REPRO-SVC-004", detail
            )
        try:
            report = self._run_coalesced(requests, policy, message.get("span"))
        except Exception as exc:  # fail-fast abort or internal error
            code = getattr(exc, "code", "REPRO-SVC-001")
            self.registry.bump("daemon", "batch_errors")
            return error_response(
                message["id"], "compile", "error", code, str(exc)
            )
        finally:
            with self._state_lock:
                self._depth -= len(requests)
        status = "ok" if all(o.ok for o in report.outcomes) else "partial"
        return {
            "v": PROTOCOL_VERSION,
            "id": message["id"],
            "op": "compile",
            "status": status,
            "report": report_to_wire(report),
        }

    def _run_coalesced(
        self,
        requests,
        policy: FailurePolicy,
        span_name: Optional[str],
    ) -> SuiteReport:
        """Execute a batch, joining any fingerprint already in flight.

        The batch is split into *owned* work (fingerprints this call
        registered — including the first of any duplicates within the
        batch itself) and *joined* work (fingerprints some other call is
        already compiling).  Owned work runs through
        ``service.compile_batch`` — cache lookups, FailurePolicy, chaos
        hooks and all — and its per-fingerprint results are published to
        the joiners; joined work just waits.  Results are reassembled in
        the caller's request order.
        """
        resolved = [request.resolve() for request in requests]
        fingerprints = [self._fingerprint(r) for r in resolved]

        owned_positions: List[int] = []
        owned_fps: List[str] = []
        joined: Dict[int, _Inflight] = {}
        with self._state_lock:
            for position, fingerprint in enumerate(fingerprints):
                entry = self._inflight.get(fingerprint)
                if entry is not None:
                    joined[position] = entry
                    continue
                self._inflight[fingerprint] = _Inflight()
                owned_positions.append(position)
                owned_fps.append(fingerprint)
        if joined:
            self.registry.bump("service", "coalesced", len(joined))

        owned_report: Optional[SuiteReport] = None
        owned_error: Optional[BaseException] = None
        try:
            if owned_positions:
                owned_report = self.service.compile_batch(
                    [resolved[p] for p in owned_positions],
                    span_name=span_name or "daemon-batch",
                    policy=policy,
                )
        except BaseException as exc:
            owned_error = exc
            raise
        finally:
            # Publish results (or the failure) and deregister — inside
            # finally, so joiners can never deadlock on a dead owner.
            with self._state_lock:
                entries = [self._inflight.pop(fp, None) for fp in owned_fps]
            for batch_index, entry in enumerate(entries):
                if entry is None:
                    continue
                if owned_report is not None:
                    outcome = owned_report.outcomes[batch_index]
                    entry.outcome = outcome
                    entry.comparison = owned_report.comparison_for(outcome)
                else:
                    entry.error = owned_error or RuntimeError(
                        "owner produced no report"
                    )
                entry.event.set()

        # Collect joined results.  The deadline is generous — covers the
        # owner's full retry budget — because a vanished owner is a bug,
        # not an expected state; the timeout just turns a would-be hang
        # into a failed outcome.
        join_timeout = 300.0
        if policy.timeout is not None:
            join_timeout = max(join_timeout, policy.timeout * policy.attempts + 60)

        report = SuiteReport(
            config=owned_report.config if owned_report else "-",
            size_class=owned_report.size_class if owned_report else "-",
            jobs=self.service.jobs,
            cache_root=self.service.cache.root,
            policy=policy.describe(),
            degraded=bool(owned_report and owned_report.degraded),
            seconds=owned_report.seconds if owned_report else 0.0,
        )
        if owned_report is not None:
            report.cache_stats.merge(owned_report.cache_stats)

        owned_by_position = {
            position: batch_index
            for batch_index, position in enumerate(owned_positions)
        }
        for position, request in enumerate(resolved):
            if position in owned_by_position and owned_report is not None:
                source = owned_report.outcomes[owned_by_position[position]]
                comparison = owned_report.comparison_for(source)
            else:
                entry = joined[position]
                if entry.event.wait(join_timeout) and entry.outcome is not None:
                    source = entry.outcome
                    comparison = entry.comparison
                else:
                    error = entry.error
                    source = RequestOutcome(
                        index=position,
                        kernel=request.kernel,
                        config=request.config.name,
                        status="failed",
                        error=(
                            str(error) if error
                            else "coalesced owner vanished without a result"
                        ),
                        error_code=getattr(error, "code", "REPRO-SVC-001"),
                    )
                    comparison = None
            outcome = RequestOutcome(
                index=position,
                kernel=source.kernel,
                config=source.config,
                status=source.status,
                attempts=source.attempts,
                seconds=source.seconds,
                error=source.error,
                error_code=source.error_code,
            )
            if comparison is not None:
                outcome.comparison_index = len(report.comparisons)
                report.comparisons.append(comparison)
            report.outcomes.append(outcome)
        return report
