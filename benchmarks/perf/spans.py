"""Benchmark-owned spans, kept in memory and written out at exit.

Each span is ``[name, start, end, parent, request]``: ``parent`` indexes
the enclosing span (-1 for none) and ``request`` groups the spans of one
request.  Spans nest per thread; a thread with nothing open adopts
:attr:`SpanRecorder.anchor`, which is how the in-process daemon's
handler thread hangs its spans under the client's round trip.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Records spans and per-request values while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.values: List[Tuple[str, float, Optional[int]]] = []
        self.labels: Dict[Optional[int], str] = {}
        self.active = False
        #: ``(span index, request)`` adopted by threads with no open span.
        self.anchor: Optional[Tuple[int, Optional[int]]] = None
        self.epoch = time.perf_counter()
        self._next_request = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Tuple[int, Optional[int]]:
        stack = self._stack()
        return stack[-1] if stack else (self.anchor or (-1, None))

    @contextmanager
    def span(self, name: str, new_request: bool = False):
        """Time the block; yields the span index (see :meth:`rename`)."""
        parent, request = self.current()
        with self._lock:
            index = len(self.spans)
            if new_request:
                request = self._next_request
                self._next_request += 1
            record = [name, time.perf_counter(), None, parent, request]
            self.spans.append(record)
        stack = self._stack()
        stack.append((index, request))
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def rename(self, index: int, name: str) -> None:
        self.spans[index][0] = name

    def label(self, text: str) -> None:
        """Name the request the calling thread is in."""
        self.labels[self.current()[1]] = text

    def record(self, name: str, value: float) -> None:
        """A per-request value (a count or a derived time) for the
        request the calling thread is in."""
        with self._lock:
            self.values.append((name, value, self.current()[1]))

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_request(self, name: str) -> Dict[Optional[int], float]:
        """Summed duration of ``name`` spans, per request."""
        totals: Dict[Optional[int], float] = defaultdict(float)
        for span_name, start, end, _, request in self.spans:
            if span_name == name:
                totals[request] += end - start
        return dict(totals)

    def per_request_values(self, name: str) -> List[float]:
        totals: Dict[Optional[int], float] = defaultdict(float)
        for value_name, value, request in self.values:
            if value_name == name:
                totals[request] += value
        return list(totals.values())

    def coverage(self, wall: float, wrappers: Iterable[str]) -> float:
        """Share of ``wall`` covered by the self time of layer spans
        (everything but the per-request ``wrappers``)."""
        skip = set(wrappers)
        covered = sum(
            own for own, span in zip(self.self_times(), self.spans)
            if span[0] not in skip
        )
        return covered / wall if wall else 0.0

    def dump(self, path: str) -> None:
        doc = [
            {
                "name": name,
                "start": start - self.epoch,
                "end": end - self.epoch,
                "parent": parent,
                "request": request,
            }
            for name, start, end, parent, request in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": doc}, fh)
            fh.write("\n")
