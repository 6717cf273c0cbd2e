"""``python -m benchmarks.perf compare A.json B.json``.

Prints every end-to-end metric per workload with its relative change
from A to B against the metric's bound.  A change worse than the bound
is a REGRESSION (exit 1) unless either run's own spread — the
inter-quartile distance of its per-round samples over their median —
exceeds the bound, in which case it is *unresolved*.  Any increase in
``error_rate`` is a regression.
"""

from __future__ import annotations

import json
from typing import List

from .metrics import END_TO_END, ERROR_RATE, spread


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(path_a: str, path_b: str) -> int:
    a_doc, b_doc = _load(path_a), _load(path_b)
    lines: List[str] = [
        f"A = {path_a}",
        f"B = {path_b}",
        "",
        f"{'workload':<14}{'metric':<20}{'A':>12}{'B':>12}{'change':>9}"
        f"{'bound':>8}  verdict",
    ]
    regressions = 0
    for workload in sorted(set(a_doc["workloads"]) & set(b_doc["workloads"])):
        a_run, b_run = a_doc["workloads"][workload], b_doc["workloads"][workload]
        for name, metric in END_TO_END.items():
            a_m = a_run["end_to_end"].get(name)
            b_m = b_run["end_to_end"].get(name)
            if a_m is None or b_m is None or not a_m["value"]:
                continue
            change = b_m["value"] / a_m["value"] - 1
            worse = change if metric.better == "lower" else -change
            spreads = [
                s for s in (spread(a_m.get("samples") or []),
                            spread(b_m.get("samples") or [])) if s is not None
            ]
            if spreads and max(spreads) > metric.bound:
                verdict = f"unresolved (spread {max(spreads):.1%})"
            elif worse > metric.bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            lines.append(
                f"{workload:<14}{name:<20}{a_m['value']:>12.4g}{b_m['value']:>12.4g}"
                f"{change:>+9.1%}{metric.bound:>8.0%}  {verdict}"
            )
        a_err, b_err = a_run[ERROR_RATE], b_run[ERROR_RATE]
        verdict = "REGRESSION" if b_err > a_err else "ok"
        regressions += verdict == "REGRESSION"
        lines.append(
            f"{workload:<14}{ERROR_RATE:<20}{a_err:>12.4g}{b_err:>12.4g}"
            f"{'':>9}{'any':>8}  {verdict}"
        )
    lines.append("")
    lines.append(f"{regressions} regression(s)")
    print("\n".join(lines))
    return 1 if regressions else 0
