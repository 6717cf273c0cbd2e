"""``backends.static`` — the Vitis-style statically scheduled engine.

The scheduling hooks of the shared loop-tree synthesizer
(:func:`repro.hls.engine.synthesize_loop_tree`), modelling Vitis csynth:

* straight-line block: list-scheduled length, bound with FU sharing;
* pipelined loop (``pipeline`` directive on an innermost single-block
  loop): iterative modulo scheduling at the requested II floor, latency
  ``IL + (trip - 1) * II + 1``;
* every other loop stays sequential (``trip * IL + 2``).
"""

from __future__ import annotations

from typing import List, Tuple

from ..hls.binding import AreaEstimate, bind_block
from ..hls.cdfg import BlockDFG, CarriedDep
from ..hls.engine import InnermostSchedule
from ..hls.modulo import modulo_schedule
from ..hls.schedule import list_schedule
from ..ir.metadata import LoopDirectives
from .base import BackendCapabilities, HLSBackend, register_backend

__all__ = ["StaticBackend"]

# Pipelining is not free: the controller (valid-bit shift registers, the
# II counter, flush logic) costs LUTs, and every overlapped stage keeps its
# cross-stage values in registers.  Charged per pipelined loop; stage count
# is ceil(IL / II), the steady-state overlap depth.
_PIPELINE_CONTROL_LUT = 40
_PIPELINE_STAGE_FF = 48


@register_backend
class StaticBackend(HLSBackend):
    """Static scheduling: ASAP/list scheduling plus iterative modulo
    scheduling for pipelined loops, FU sharing through the binder."""

    id = "static"
    capabilities = BackendCapabilities(
        scheduling="static",
        directives=("pipeline", "ii", "unroll", "partition"),
        respects_ii=True,
        shares_functional_units=True,
    )
    FUNCTION_CONTROL = (200, 300)  # central FSM
    LOOP_CONTROL = (50, 70)

    def overlaps_innermost(self, directives: LoopDirectives) -> bool:
        return directives.pipeline

    def schedule_innermost(
        self,
        dfg: BlockDFG,
        carried: List[CarriedDep],
        directives: LoopDirectives,
        eff_trip_min: int,
        eff_trip_max: int,
    ) -> InnermostSchedule:
        ms = modulo_schedule(dfg, carried, target_ii=directives.ii)
        il = max(ms.length, 1)
        ii = ms.ii
        lat_min = il + max(eff_trip_min - 1, 0) * ii + 1 if eff_trip_min else 1
        lat_max = il + max(eff_trip_max - 1, 0) * ii + 1 if eff_trip_max else 1
        area = bind_block(dfg, ms.starts, self.library, ii=ii)
        stages = max(1, -(-il // max(ii, 1)))
        area.lut += _PIPELINE_CONTROL_LUT
        area.ff += _PIPELINE_STAGE_FF * stages
        return InnermostSchedule(
            iteration_latency=il,
            ii=ii,
            latency_min=lat_min,
            latency_max=lat_max,
            res_mii=ms.res_mii,
            rec_mii=ms.rec_mii,
            area=area,
        )

    def block_cost(self, dfg: BlockDFG) -> Tuple[int, AreaEstimate]:
        schedule = list_schedule(dfg)
        return schedule.length, bind_block(dfg, schedule.starts, self.library)
