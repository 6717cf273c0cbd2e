"""Content-addressed cache keys for the compilation service.

A cache entry is valid exactly when recompiling would reproduce it, so the
key hashes everything the comparison depends on:

* **kernel IR** — the printed MLIR module the flows consume (not just the
  kernel name: editing a builder in :mod:`repro.workloads.polybench`
  changes the hash and invalidates stale entries automatically);
* **optimisation config** — a canonical JSON rendering of
  :class:`repro.flows.OptimizationConfig`;
* **pass-pipeline version** — the adaptor/cleanup/lowering pass rosters
  plus an explicit :data:`PIPELINE_VERSION` bump constant for semantic
  changes that keep the rosters intact;
* **run parameters** — device, equivalence seed, whether equivalence was
  checked.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from ..adaptor.pipeline import ADAPTOR_PASS_ORDER, ESSENTIAL_PASSES
from ..flows.config import OptimizationConfig

__all__ = [
    "PIPELINE_VERSION",
    "CACHE_FORMAT_VERSION",
    "pipeline_fingerprint",
    "config_fingerprint",
    "kernel_fingerprint",
    "cache_key",
]

#: Bump when a pass changes behaviour without changing the pass roster
#: (the roster itself is hashed separately).  Append-only, like the
#: diagnostic codes: never reuse an old value.
#: 2: the post-adaptor lint gate joined the pipeline (verdicts travel in
#: cached rows, and a gate failure must not be masked by a stale hit).
#: 3: the HLS engine's area/latency model learned pipeline control costs
#: and bank-aware outer-loop unrolling — cached latency/resource numbers
#: from version 2 would disagree with a fresh compile.
#: 4: metadata printing switched to structural uniquing (duplicate
#: non-distinct nodes now share one ``!N`` slot), changing printed IR
#: byte-for-byte; stale cached text must not survive the change.
#: 5: the backend registry landed — the synthesis backend id joined the
#: cache key and reports carry ``backend``/per-backend lint verdicts;
#: pre-registry rows never recorded which engine produced them.
PIPELINE_VERSION = 5

#: Bump when the on-disk entry layout changes (header schema, payload
#: encoding).  Old entries then read back as misses, not corruption.
#: 2: FlowComparison grew ``lookup_seconds`` and the serialized
#: observability ``trace`` — pre-observability entries would unpickle
#: without those attributes, so they are retired wholesale.
#: 3: FlowComparison grew the ``lint`` verdict dict.
#: 4: the store moved from a flat ``entries/`` tree to sharded
#: ``shards/<prefix>/`` segments with a layout manifest; an old flat
#: tree is never read, so such a cache starts cold.
CACHE_FORMAT_VERSION = 4


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pipeline_fingerprint() -> str:
    """Hash of everything the compile pipeline is made of."""
    from ..ir.transforms import standard_cleanup_pipeline
    from ..mlir.passes import lowering_pipeline

    cleanup = [p.name for p in standard_cleanup_pipeline().passes]
    lowering = [p.name for p in lowering_pipeline().passes]
    payload = {
        "pipeline_version": PIPELINE_VERSION,
        "adaptor_passes": list(ADAPTOR_PASS_ORDER),
        "essential_passes": sorted(ESSENTIAL_PASSES),
        "cleanup_passes": cleanup,
        "lowering_passes": lowering,
    }
    return _sha256(json.dumps(payload, sort_keys=True))


def config_fingerprint(config: OptimizationConfig) -> str:
    """Canonical hash of an optimisation config (field order independent)."""
    payload = {
        "name": config.name,
        "pipeline_innermost": config.pipeline_innermost,
        "ii": config.ii,
        "unroll_innermost": config.unroll_innermost,
        "partition": config.partition,
    }
    # Only present when set, so configs predating per-level unroll keep
    # their original hashes (and their warm cache entries).
    levels = getattr(config, "unroll_levels", None)
    if levels:
        payload["unroll_levels"] = {str(k): v for k, v in sorted(levels.items())}
    return _sha256(json.dumps(payload, sort_keys=True))


def kernel_fingerprint(kernel_name: str, sizes: Dict[str, int]) -> str:
    """Hash of the kernel's *pre-config* MLIR module.

    Builds a fresh spec and prints it, so the hash tracks the builder's
    actual output: a change to a kernel builder invalidates its entries.
    """
    from ..mlir.printer import print_module
    from ..workloads.polybench import build_kernel

    spec = build_kernel(kernel_name, **sizes)
    return _sha256(print_module(spec.module))


def cache_key(
    kernel_name: str,
    sizes: Dict[str, int],
    config: OptimizationConfig,
    device: str = "xc7z020",
    check_equivalence: bool = True,
    seed: int = 0,
    kernel_hash: Optional[str] = None,
    backend: str = "static",
) -> str:
    """The content-addressed key for one flow comparison.

    ``backend`` is the synthesis backend id (``repro.backends``): the
    same kernel/config pair produces different numbers under different
    engines, so rows must never be shared across backends.
    ``kernel_hash`` lets callers that already computed the kernel
    fingerprint (e.g. a batch run hashing each kernel once) skip the
    rebuild."""
    payload = {
        "kernel": kernel_name,
        "kernel_ir": kernel_hash or kernel_fingerprint(kernel_name, sizes),
        "sizes": dict(sorted(sizes.items())),
        "config": config_fingerprint(config),
        "pipeline": pipeline_fingerprint(),
        "device": device,
        "check_equivalence": check_equivalence,
        "seed": seed,
        "backend": backend,
    }
    return _sha256(json.dumps(payload, sort_keys=True))
