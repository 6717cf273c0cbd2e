"""The output check: every row and frontier against ``expected.json``.

``expected.json`` holds, per ``kernel/config/size/backend``, the latency
and resources of both flows, and per DSE cell the frontier fingerprint
(:func:`repro.testing.oracle.frontier_fingerprint`).  It was generated
with ``python -m benchmarks.perf run --update-expected`` and changes
only when a change is meant to move synthesis results.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def row_key(kernel: str, config: str, size: str, backend: str) -> str:
    return f"{kernel}/{config}/{size}/{backend}"


def row_outputs(comparison) -> Dict:
    return {
        flow: {
            "latency": result.latency,
            "resources": dict(sorted(result.resources.items())),
        }
        for flow, result in (("adaptor", comparison.adaptor), ("cpp", comparison.cpp))
    }


def frontier_outputs(report) -> List[list]:
    from repro.testing.oracle import frontier_fingerprint

    return [list(point) for point in frontier_fingerprint(report)]


def load(path: str = EXPECTED_PATH) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def row_problems(expected: Dict, key: str, comparison, status: str) -> List[str]:
    """Why ``comparison`` is not the correct answer for ``key`` (empty
    when it is): wrong cache status, unexpected latency/resources, a
    failed equivalence check or error-severity lint findings."""
    problems = []
    if comparison.cache_status != status:
        problems.append(f"{key}: cache_status {comparison.cache_status}, want {status}")
    want = expected["rows"].get(key)
    got = row_outputs(comparison)
    if got != want:
        problems.append(f"{key}: outputs {got} != expected {want}")
    if comparison.functionally_equivalent is False:
        problems.append(f"{key}: equivalence check failed")
    if comparison.lint and comparison.lint.get("errors"):
        problems.append(f"{key}: lint errors {comparison.lint.get('codes')}")
    return problems


def generate(path: str = EXPECTED_PATH) -> Dict:
    """Compile every row and explore every cell the workloads use, from
    cold caches, and write the answers to ``path``."""
    import tempfile

    from repro.api import explore
    from repro.service import CompilationService
    from repro.workloads.suite import SUITE_SIZES

    from .runner import WORK_DIR
    from .workloads import DSE_CELLS, cell_id

    rows: Dict[str, Dict] = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as cache_dir:
        service = CompilationService(cache_dir=os.path.join(cache_dir, "rows"))
        for size, backends in (("SMALL", ("static",)), ("MINI", ("static", "dataflow"))):
            for kernel in SUITE_SIZES[size]:
                for config in ("baseline", "optimized"):
                    for backend in backends:
                        comparison = service.compile_one(
                            kernel, config, size_class=size,
                            check_equivalence=False, backend=backend,
                        )
                        rows[row_key(kernel, config, size, backend)] = row_outputs(
                            comparison
                        )
        frontiers = {
            cell_id(cell): frontier_outputs(
                explore(
                    cell[0], size="MINI", space=cell[1], strategy=cell[2],
                    budget=cell[3], cache_dir=os.path.join(cache_dir, "dse"),
                    jobs=1, backends=["static", "dataflow"],
                )
            )
            for cell in DSE_CELLS
        }
    doc = {"rows": dict(sorted(rows.items())), "frontiers": frontiers}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc
