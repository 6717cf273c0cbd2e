"""The backend-neutral engine contract.

The adaptor's whole point is producing IR *an* HLS engine can consume —
not one specific engine.  This module makes that claim enforceable: an
:class:`HLSBackend` is the formal contract every synthesis engine
implements (frontend checking, directive vocabulary, ``synthesize`` →
:class:`~repro.hls.report.SynthReport`), and the registry below is the
single place flows, the service, DSE and the CLI resolve a backend id
into a constructed engine.

Two backends ship:

* ``static`` (:mod:`repro.backends.static`) — the Vitis-style statically
  scheduled engine (ASAP/list scheduling + iterative modulo scheduling)
  that has carried the reproduction since the seed;
* ``dataflow`` (:mod:`repro.backends.dataflow`) — a dynamically
  scheduled engine in the Dynamatic mould: operations map to
  handshake-style units, fire on token arrival, and loop II *emerges*
  from simulating token flow around the circuit instead of being
  solved for by a modulo scheduler.

Consumers never construct engines directly any more — they call
:func:`create_backend` (or pass a ``backend=`` id down a flow), which is
also where the device/strict-frontend plumbing that used to be
duplicated across ``adaptor_flow.py`` and ``cpp_flow.py`` now lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type, Union

from ..diagnostics.errors import PipelineConfigError
from ..hls.device import DEVICES, Device
from ..hls.engine import synthesize_loop_tree
from ..hls.frontend import HLSFrontend
from ..hls.operators import DEFAULT_LIBRARY, OperatorLibrary
from ..hls.report import SynthReport

__all__ = [
    "BackendCapabilities",
    "HLSBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "register_backend",
    "backend_ids",
    "get_backend_class",
    "resolve_backend_id",
    "create_backend",
]

#: The id every call site defaults to — the engine the paper models.
DEFAULT_BACKEND = "static"


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can consume and how it schedules.

    * ``scheduling`` — ``"static"`` (compile-time schedule, Vitis-style)
      or ``"dynamic"`` (handshake circuit, runtime token flow);
    * ``directives`` — the directive vocabulary the backend honours
      (subset of ``pipeline``/``ii``/``unroll``/``partition``).
      Directives outside the vocabulary are *ignored*, not rejected:
      the adaptor contract stays identical across backends;
    * ``respects_ii`` — whether a target II directive constrains the
      result (a dataflow circuit's II is emergent, not requested);
    * ``shares_functional_units`` — whether operations time-share FU
      instances (dynamic circuits give every operation its own unit).
    """

    scheduling: str
    directives: Tuple[str, ...]
    respects_ii: bool = True
    shares_functional_units: bool = True

    def describe(self) -> str:
        return (
            f"{self.scheduling} scheduling; "
            f"directives: {', '.join(self.directives) or 'none'}"
        )


class HLSBackend:
    """The engine contract.

    Subclasses set the class-level ``id``/``capabilities`` and the
    ``(lut, ff)`` control constants, and implement the three scheduling
    hooks below; :meth:`synthesize` runs the shared loop-tree
    synthesizer (:func:`repro.hls.engine.synthesize_loop_tree`) over
    them.  Everything else — directive projection for DSE dedup, lint
    applicability — has vocabulary-driven defaults.
    """

    #: Registry key, report field and CLI spelling.  Stable.
    id: str = "abstract"
    capabilities: BackendCapabilities = BackendCapabilities(
        scheduling="static", directives=()
    )
    #: ``(lut, ff)`` control overhead per function and per loop.
    FUNCTION_CONTROL: Tuple[int, int]
    LOOP_CONTROL: Tuple[int, int]

    def __init__(
        self,
        device: Union[str, Device] = "xc7z020",
        library: Optional[OperatorLibrary] = None,
        strict_frontend: bool = True,
    ):
        self.device = DEVICES[device] if isinstance(device, str) else device
        self.library = library or DEFAULT_LIBRARY
        self.strict_frontend = strict_frontend
        self.frontend = HLSFrontend(strict=strict_frontend)

    # -- the contract -------------------------------------------------------
    def synthesize(self, module, top: Optional[str] = None) -> SynthReport:
        """Frontend-check ``module`` and produce a synthesis estimate,
        stamped with :attr:`id` so fingerprints, caches and DSE reports
        can attribute the numbers."""
        return synthesize_loop_tree(self, module, top)

    # -- scheduling hooks ---------------------------------------------------
    def overlaps_innermost(self, directives) -> bool:
        """Whether an innermost single-block loop overlaps iterations
        (and so is handed to :meth:`schedule_innermost`)."""
        raise NotImplementedError

    def schedule_innermost(self, dfg, carried, directives, eff_trip_min, eff_trip_max):
        """Schedule an overlapped innermost loop body →
        :class:`repro.hls.engine.InnermostSchedule`."""
        raise NotImplementedError

    def block_cost(self, dfg):
        """``(cycles, area)`` of one straight-line block."""
        raise NotImplementedError

    # -- vocabulary-driven defaults -----------------------------------------
    def project_signature(self, config) -> tuple:
        """The part of an :class:`OptimizationConfig` this backend sees.

        Two configs with equal projections synthesize identically under
        this backend, so DSE dedupes candidates on it — e.g. a dynamic
        backend that ignores ``pipeline``/``ii`` collapses every II
        variant of a point into one compile.
        """
        pipeline, ii, levels, partition = config.signature()
        vocab = self.capabilities.directives
        return (
            pipeline if "pipeline" in vocab else None,
            ii if "ii" in vocab else None,
            levels if "unroll" in vocab else (),
            partition if "partition" in vocab else None,
        )

    def describe(self) -> str:
        return f"{self.id}: {self.capabilities.describe()}"


#: The registry, keyed by stable backend id.
BACKENDS: Dict[str, Type[HLSBackend]] = {}


def register_backend(cls: Type[HLSBackend]) -> Type[HLSBackend]:
    """Class decorator adding a backend to the registry (ids are unique)."""
    if not cls.id or cls.id == "abstract":
        raise ValueError(f"backend class {cls.__name__} needs a concrete id")
    if cls.id in BACKENDS:
        raise ValueError(f"duplicate backend id {cls.id!r}")
    if cls.capabilities.scheduling not in ("static", "dynamic"):
        raise ValueError(
            f"backend {cls.id!r} has unknown scheduling model "
            f"{cls.capabilities.scheduling!r}"
        )
    BACKENDS[cls.id] = cls
    return cls


def backend_ids() -> List[str]:
    """Registered backend ids, sorted (default first)."""
    ids = sorted(BACKENDS)
    if DEFAULT_BACKEND in ids:
        ids.remove(DEFAULT_BACKEND)
        ids.insert(0, DEFAULT_BACKEND)
    return ids


def get_backend_class(backend_id: str) -> Type[HLSBackend]:
    try:
        return BACKENDS[backend_id]
    except KeyError:
        raise PipelineConfigError(
            f"unknown HLS backend {backend_id!r}; valid: {backend_ids()}"
        ) from None


def resolve_backend_id(backend: Union[str, HLSBackend, None]) -> str:
    """The stable id of ``backend`` (id string, instance, or None=default)."""
    if backend is None:
        return DEFAULT_BACKEND
    if isinstance(backend, HLSBackend):
        return backend.id
    get_backend_class(backend)  # validate
    return backend


def create_backend(
    backend: Union[str, HLSBackend, None] = None,
    device: Union[str, Device] = "xc7z020",
    library: Optional[OperatorLibrary] = None,
    strict_frontend: bool = True,
) -> HLSBackend:
    """The one place engines are constructed.

    ``backend`` is a registry id (``None`` = :data:`DEFAULT_BACKEND`) or
    an already-constructed instance, which passes through untouched —
    callers that built a custom engine keep full control, while the
    flows' string-spelled path funnels through here so the
    device/strict-frontend plumbing exists exactly once.
    """
    if isinstance(backend, HLSBackend):
        return backend
    cls = get_backend_class(resolve_backend_id(backend))
    return cls(device=device, library=library, strict_frontend=strict_frontend)
