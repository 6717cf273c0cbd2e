"""Exporters: Chrome trace-event JSON, human summary tables, stats diffs.

The Chrome format is the ``chrome://tracing`` / Perfetto "JSON Array
with metadata" flavour::

    {"traceEvents": [{"name": ..., "cat": ..., "ph": "X",
                      "ts": <us>, "dur": <us>, "pid": 1, "tid": 1,
                      "args": {...}}, ...],
     "displayTimeUnit": "ms"}

Complete (``ph="X"``) events only, one process/thread lane per span
forest, with ``process_name`` metadata events labelling lanes.  Span
``start``/``duration`` are seconds; ``ts``/``dur`` are microseconds and
kept as exact floats (no rounding) so parent/child containment survives
the conversion byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .tracer import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "chrome_trace",
    "dump_chrome_trace",
    "load_span_forest",
    "hot_ranking",
    "hot_table",
    "trace_summary",
    "stats_diff",
    "diff_table",
]

#: Anything span-shaped: a live tracer, spans, or their ``to_dict`` forms
#: (the cache stores the latter, so exporters take both).
SpanForest = Union[Span, Dict[str, Any], Sequence[Union[Span, Dict[str, Any]]], Tracer]


def _roots(forest: SpanForest) -> List[Span]:
    if isinstance(forest, Tracer):
        return list(forest.roots)
    if isinstance(forest, Span):
        return [forest]
    if isinstance(forest, dict):
        return [Span.from_dict(forest)]
    return [Span.from_dict(r) if isinstance(r, dict) else r for r in forest]


def chrome_trace_events(
    forest: SpanForest, pid: int = 1, tid: int = 1, label: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Flatten a span forest into complete trace events on one lane."""
    events: List[Dict[str, Any]] = []
    if label:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
    for root in _roots(forest):
        for span in root.walk():
            event: Dict[str, Any] = {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (span.duration or 0.0) * 1e6,
                "pid": pid,
                "tid": tid,
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
    return events


def chrome_trace(
    forest: Optional[SpanForest] = None,
    lanes: Optional[Iterable[Tuple[str, SpanForest]]] = None,
) -> Dict[str, Any]:
    """Build the full trace document.

    ``forest`` lands on pid 1; each extra ``(label, forest)`` lane gets its
    own pid so e.g. per-kernel compile traces sit side by side with the
    suite-level timeline.
    """
    events: List[Dict[str, Any]] = []
    if forest is not None:
        events.extend(chrome_trace_events(forest, pid=1, label="repro"))
    for i, (label, lane_forest) in enumerate(lanes or ()):
        events.extend(chrome_trace_events(lane_forest, pid=2 + i, label=label))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_chrome_trace(
    path: str,
    forest: Optional[SpanForest] = None,
    lanes: Optional[Iterable[Tuple[str, SpanForest]]] = None,
) -> Dict[str, Any]:
    """Write the trace document to ``path``; returns the document."""
    document = chrome_trace(forest, lanes)
    with open(path, "w") as fh:
        json.dump(document, fh)
    return document


# -- hotspot ranking ------------------------------------------------------------
def load_span_forest(document: Any) -> List[Span]:
    """Rebuild spans from any committed trace artefact.

    Accepts every shape the toolchain writes: a single span dict
    (``Span.to_dict`` — what ``SuiteReport.trace``/``DSEReport.trace``
    embed), a list of span dicts, a ``{"spans": [...]}`` or
    ``{"trace": {...}}`` wrapper, or a Chrome trace document
    (``{"traceEvents": [...]}`` — complete events become flat spans,
    their nesting already paid for by the exporter's exact timestamps).
    """
    if isinstance(document, dict) and "traceEvents" in document:
        spans = []
        for event in document["traceEvents"]:
            if not isinstance(event, dict) or event.get("ph") != "X":
                continue
            spans.append(
                Span(
                    name=str(event.get("name", "")),
                    category=str(event.get("cat", "")),
                    start=float(event.get("ts", 0.0)) / 1e6,
                    duration=float(event.get("dur", 0.0)) / 1e6,
                    args=dict(event.get("args", {})),
                )
            )
        return spans
    if isinstance(document, dict) and "spans" in document:
        return _roots(document["spans"])
    if isinstance(document, dict) and "trace" in document:
        trace = document["trace"]
        return _roots(trace) if trace else []
    return _roots(document)


def hot_ranking(
    forest: SpanForest, category: str = "pass"
) -> List[Dict[str, Any]]:
    """Aggregate span wall time by name within one category, hottest first.

    Self time is total time minus same-category descendants, so a span
    nested inside another of its category is not charged twice.  Rows
    carry ``name``/``count``/``total_s``/``self_s``/``mean_s``/``share``
    (share of the category's summed self time).
    """
    totals: Dict[str, Dict[str, float]] = {}
    for root in load_span_forest(forest):
        for span in root.walk():
            if span.category != category:
                continue
            nested = sum(
                (inner.duration or 0.0)
                for child in span.children
                for inner in child.walk()
                if inner.category == category
            )
            duration = span.duration or 0.0
            row = totals.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += max(0.0, duration - nested)
    grand = sum(row["self_s"] for row in totals.values())
    ranking = [
        {
            "name": name,
            "count": int(row["count"]),
            "total_s": row["total_s"],
            "self_s": row["self_s"],
            "mean_s": row["total_s"] / row["count"] if row["count"] else 0.0,
            "share": row["self_s"] / grand if grand else 0.0,
        }
        for name, row in totals.items()
    ]
    ranking.sort(key=lambda r: (-r["self_s"], -r["total_s"], r["name"]))
    return ranking


def hot_table(
    forest: SpanForest,
    category: str = "pass",
    top: Optional[int] = None,
    title: str = "hotspots",
) -> str:
    """Human table over :func:`hot_ranking` (``top`` rows, all if None)."""
    ranking = hot_ranking(forest, category=category)
    if not ranking:
        return f"{title}\n(no '{category}'-category spans in this trace)"
    shown = ranking if top is None else ranking[:top]
    name_w = max(len(r["name"]) for r in shown)
    lines = [
        title,
        "",
        f"{'rank':>4} {'span':<{name_w}} {'count':>6} "
        f"{'self ms':>10} {'total ms':>10} {'mean ms':>9} {'share':>7}",
    ]
    for i, row in enumerate(shown, 1):
        lines.append(
            f"{i:>4} {row['name']:<{name_w}} {row['count']:>6} "
            f"{row['self_s'] * 1e3:>10.3f} {row['total_s'] * 1e3:>10.3f} "
            f"{row['mean_s'] * 1e3:>9.3f} {row['share'] * 100:>6.1f}%"
        )
    if top is not None and len(ranking) > top:
        lines.append(f"... ({len(ranking) - top} more)")
    return "\n".join(lines)


# -- human-readable summaries ---------------------------------------------------
def trace_summary(forest: SpanForest, title: str = "trace summary") -> str:
    """Indented per-span table: name, category, wall time, annotations."""
    lines = [title, ""]
    for root in _roots(forest):
        _summarise(root, 0, lines)
    return "\n".join(lines)


def _summarise(span: Span, depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    ms = (span.duration or 0.0) * 1e3
    args = ""
    if span.args:
        args = "  " + ", ".join(
            f"{k}={v}" for k, v in sorted(span.args.items())
        )
    label = f"{indent}{span.name}"
    cat = f"[{span.category}]" if span.category else ""
    lines.append(f"{label:<44} {cat:<14} {ms:>10.3f} ms{args}")
    for child in span.children:
        _summarise(child, depth + 1, lines)


# -- counter diffs --------------------------------------------------------------
def stats_diff(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-counter ``after - before`` delta, keeping only nonzero rows."""
    out: Dict[str, Dict[str, int]] = {}
    groups = set(before) | set(after)
    for group in groups:
        a, b = after.get(group, {}), before.get(group, {})
        for name in set(a) | set(b):
            delta = a.get(name, 0) - b.get(name, 0)
            if delta:
                out.setdefault(group, {})[name] = delta
    return out


def diff_table(
    left: Dict[str, Dict[str, int]],
    right: Dict[str, Dict[str, int]],
    left_label: str = "baseline",
    right_label: str = "optimized",
    title: str = "counter diff",
) -> str:
    """Side-by-side counter comparison of two registry dumps."""
    rows: List[Tuple[str, str, int, int]] = []
    for group in sorted(set(left) | set(right)):
        l, r = left.get(group, {}), right.get(group, {})
        for name in sorted(set(l) | set(r)):
            rows.append((group, name, l.get(name, 0), r.get(name, 0)))
    if not rows:
        return f"{title}\n(no counters on either side)"
    group_w = max(len(g) for g, _, _, _ in rows)
    name_w = max(len(n) for _, n, _, _ in rows)
    lines = [
        title,
        "",
        f"{'group':<{group_w}} {'counter':<{name_w}} "
        f"{left_label:>12} {right_label:>12} {'delta':>8}",
    ]
    for group, name, lv, rv in rows:
        delta = rv - lv
        mark = "" if delta == 0 else f"{delta:+d}"
        lines.append(
            f"{group:<{group_w}} {name:<{name_w}} {lv:>12} {rv:>12} {mark:>8}"
        )
    return "\n".join(lines)
