"""repro.service — the parallel, persistently-cached compilation service.

Scales the flow-comparison workload the way the ROADMAP's batch-DSE
consumers (SEER/Phism-style sweeps, the benchmark harness, CI) need:

* :class:`CompilationService` — cache-first single compiles and
  multi-process batch suite runs sharing one on-disk store; its rows
  carry results, not the flows' IR modules;
* :class:`CompilationCache` — content-addressed, checksummed, atomic;
  corruption degrades to recompile with a ``REPRO-CACHE-*`` diagnostic;
* :func:`cache_key` and friends — fingerprints over kernel IR,
  optimisation config and the pass-pipeline version, so any change to
  what a compile *means* invalidates exactly the stale entries;
* :class:`CompileDaemon` / :class:`DaemonClient` — the long-running
  compile server (``python -m repro serve``): NDJSON socket protocol,
  hot in-memory LRU tier over the sharded disk store, in-flight request
  coalescing by cache key, and bounded-queue back-pressure
  (``REPRO-SVC-004``);
* ``python -m repro run-suite`` / ``serve`` / ``load-test`` /
  ``cache stats`` / ``cache clear`` — the CLI.
"""

from .cache import (
    SHARD_PREFIX_LEN,
    CacheStats,
    CompilationCache,
    default_cache_dir,
)
from .client import DaemonClient
from .daemon import CompileDaemon, parse_address
from .protocol import PROTOCOL_VERSION
from .tiers import MemoryTier, TieredCompilationCache
from .fingerprint import (
    CACHE_FORMAT_VERSION,
    PIPELINE_VERSION,
    cache_key,
    config_fingerprint,
    kernel_fingerprint,
    pipeline_fingerprint,
)
from .resilience import (
    FAILURE_MODES,
    OUTCOME_STATUSES,
    FailurePolicy,
    RequestOutcome,
    ResilientExecutor,
    outcome_counts,
)
from .service import (
    NAMED_CONFIGS,
    CompilationService,
    CompileRequest,
    SuiteReport,
    default_jobs,
    resolve_config,
)

__all__ = [
    "CacheStats",
    "CompilationCache",
    "default_cache_dir",
    "SHARD_PREFIX_LEN",
    "MemoryTier",
    "TieredCompilationCache",
    "CompileDaemon",
    "DaemonClient",
    "parse_address",
    "PROTOCOL_VERSION",
    "CACHE_FORMAT_VERSION",
    "PIPELINE_VERSION",
    "cache_key",
    "config_fingerprint",
    "kernel_fingerprint",
    "pipeline_fingerprint",
    "FAILURE_MODES",
    "OUTCOME_STATUSES",
    "FailurePolicy",
    "RequestOutcome",
    "ResilientExecutor",
    "outcome_counts",
    "NAMED_CONFIGS",
    "CompilationService",
    "CompileRequest",
    "SuiteReport",
    "default_jobs",
    "resolve_config",
]
