"""The loop-tree synthesizer every HLS backend shares.

:func:`synthesize_loop_tree` owns everything about turning a frontend-
checked function into a csynth-style report that does not depend on how
a backend schedules: the top-function lookup, the memory model, the
post-order loop walk with ``L{n}_{header}`` naming, unroll decoding,
region composition and the function-level totals.  A backend (see
:class:`repro.backends.HLSBackend`) supplies only the hooks where
scheduling models differ:

* ``overlaps_innermost(directives)`` — whether an innermost single-block
  loop overlaps its iterations;
* ``schedule_innermost(dfg, carried, directives, trip_min, trip_max)`` —
  iteration latency, II, loop latency range and area of such a loop;
* ``block_cost(dfg)`` — ``(cycles, area)`` of one straight-line block;
* ``FUNCTION_CONTROL`` / ``LOOP_CONTROL`` — ``(lut, ff)`` control
  overhead per function and per loop.

Latency model shared by every backend:

* straight-line block: the backend's ``block_cost``;
* sequential loop: ``trip * IL + 2`` (iteration latency + enter/exit),
  with IL the longest path through the body's region DAG;
* directive-driven unrolling: virtual replication of the body DFG by the
  factor with trip divided (structural unrolling at the MLIR level gives
  the exact equivalent — the ablation compares both); unrolled child
  loops time-share as far as array banking forces them to;
* function: longest path through the top-level CFG DAG with loops
  collapsed to supernodes.

Variable trip counts (triangular nests) propagate as (min, max) ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.analysis.cfg import reverse_postorder
from ..ir.analysis.loops import Loop, LoopInfo
from ..ir.instructions import Phi
from ..ir.metadata import LoopDirectives, decode_loop_directives
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import ConstantInt
from .affine_summary import summarize_index
from .binding import AreaEstimate, merge_area
from .cdfg import build_block_dfg, carried_dependences
from .memory import MemoryModel
from .report import LoopReport, SynthReport

__all__ = [
    "InnermostSchedule",
    "synthesize_loop_tree",
    "find_top_function",
    "loop_directives_for",
    "trip_range",
    "region_graph",
]


@dataclass
class InnermostSchedule:
    """A backend's schedule of one overlapped innermost loop body."""

    iteration_latency: int
    ii: int
    latency_min: int
    latency_max: int
    res_mii: int
    rec_mii: int
    area: AreaEstimate


@dataclass
class _LoopResult:
    latency_min: int
    latency_max: int
    report: LoopReport
    area: AreaEstimate


# -- loop/region analyses ----------------------------------------------------
# Every backend reads directives, trip ranges and region structure through
# these — the numbers may differ per backend, the *interpretation* of the
# IR may not.


def find_top_function(module: Module, top: Optional[str] = None) -> Function:
    """The synthesis top: explicit name > ``hls_top`` attribute > the only
    defined function; anything else is ambiguous."""
    if top is not None:
        fn = module.get_function(top)
        if fn is None or fn.is_declaration:
            raise ValueError(f"no defined function @{top}")
        return fn
    tops = [f for f in module.defined_functions() if "hls_top" in f.attributes]
    if len(tops) == 1:
        return tops[0]
    defined = module.defined_functions()
    if len(defined) == 1:
        return defined[0]
    raise ValueError(
        "ambiguous top function: tag one with the hls_top attribute or "
        "pass top=..."
    )


def loop_directives_for(loop: Loop) -> LoopDirectives:
    """Decode the loop's HLS-dialect directives off its latch metadata.

    Modern-spelling directives are invisible to the old fork, so they are
    invisible to every backend too — backends differ in which decoded
    directives they *honour*, never in what they can see."""
    for latch in loop.latches():
        term = latch.terminator
        if term is None:
            continue
        node = term.metadata.get("llvm.loop")
        if node is None:
            continue
        directives, dialects = decode_loop_directives(node)
        if "hls" in dialects:
            return directives
    return LoopDirectives()


def _enclosing_iv_range(
    value, loop: Loop
) -> Optional[Tuple[int, int]]:
    """Range of an enclosing loop's IV (for triangular bounds)."""
    if not isinstance(value, Phi):
        return None
    enclosing = loop.parent
    while enclosing is not None:
        counted = enclosing.counted_form()
        if counted is not None and counted.indvar is value:
            if isinstance(counted.start, ConstantInt) and isinstance(
                counted.bound, ConstantInt
            ):
                lo = counted.start.value
                hi = counted.bound.value
                if counted.predicate in ("slt", "ult"):
                    hi -= 1
                return (lo, max(lo, hi))
            return None
        enclosing = enclosing.parent
    return None


def trip_range(loop: Loop, loop_info: LoopInfo) -> Tuple[int, int]:
    """(min, max) trip count; triangular bounds resolve through the
    affine summary over enclosing counted loops."""
    counted = loop.counted_form()
    if counted is None:
        return (1, 64)  # irregular loop: Vitis reports '?'; we bound it
    exact = counted.trip_count()
    if exact is not None:
        return (exact, exact)
    lo = counted.start.value if isinstance(counted.start, ConstantInt) else None
    summary = summarize_index(counted.bound)
    bound_min = bound_max = summary.const
    resolvable = True
    for key, coeff in summary.coeffs.items():
        leaf = summary.leaves[key]
        rng = _enclosing_iv_range(leaf, loop)
        if rng is None:
            resolvable = False
            break
        low, high = rng
        lo_term, hi_term = sorted((coeff * low, coeff * high))
        bound_min += lo_term
        bound_max += hi_term
    if not resolvable or lo is None:
        return (1, 64)
    step = max(counted.step, 1)
    pred = counted.predicate
    inclusive = pred in ("sle", "ule")
    span_min = bound_min - lo + (1 if inclusive else 0)
    span_max = bound_max - lo + (1 if inclusive else 0)
    trip_min = max(0, -(-span_min // step)) if span_min > 0 else 0
    trip_max = max(trip_min, -(-span_max // step)) if span_max > 0 else trip_min
    return (trip_min, trip_max)


def region_graph(
    blocks: List[BasicBlock], child_loops: List[Loop]
) -> Tuple[Dict[int, object], Dict[int, List[int]]]:
    """Units (blocks + collapsed child loops) and the DAG between them.

    Keys are ``id(block)`` / ``id(child.header)``; edges follow CFG
    successors with back edges into the same unit dropped.  Both backends
    compose regions over exactly this graph — only the unit weights (and
    areas) differ."""
    child_of: Dict[int, Loop] = {}
    for child in child_loops:
        for block in child.blocks:
            child_of[id(block)] = child

    units: Dict[int, object] = {}
    for block in blocks:
        units[id(block)] = block
    for child in child_loops:
        units[id(child.header)] = child

    def unit_key(block: BasicBlock) -> Optional[int]:
        child = child_of.get(id(block))
        if child is not None:
            return id(child.header)
        return id(block) if id(block) in units else None

    succs: Dict[int, List[int]] = {key: [] for key in units}
    for key, unit in units.items():
        targets = unit.exit_blocks() if isinstance(unit, Loop) else unit.successors
        for target in targets:
            tkey = unit_key(target)
            if tkey is not None and tkey != key and tkey not in succs[key]:
                succs[key].append(tkey)
    return units, succs


# -- the shared synthesizer --------------------------------------------------


def synthesize_loop_tree(backend, module: Module, top: Optional[str] = None) -> SynthReport:
    """Frontend-check ``module`` and synthesize its top function with the
    scheduling hooks of ``backend`` (an :class:`repro.backends.HLSBackend`)."""
    diag = backend.frontend.check(module)
    fn = find_top_function(module, top)
    report = SynthReport(
        function=fn.name,
        flow=module.source_flow or "unknown",
        device=backend.device,
        backend=backend.id,
        frontend_warnings=list(diag.warnings),
        dropped_directives=diag.dropped_directives,
    )
    tree = _LoopTree(backend, fn)
    loop_info = tree.loop_info
    for loop in loop_info.top_level:
        tree.process_loop(loop, 1)

    # Top-level (non-loop) blocks.
    lat_min, lat_max, top_area = tree.compose_region(
        [b for b in reverse_postorder(fn) if loop_info.loop_for(b) is None],
        loop_info.top_level,
    )
    tree.areas.append(top_area)

    report.latency_min = lat_min
    report.latency_max = lat_max
    total_area = merge_area(*tree.areas)
    loops = loop_info.all_loops()
    function_lut, function_ff = backend.FUNCTION_CONTROL
    loop_lut, loop_ff = backend.LOOP_CONTROL
    total_area.lut += function_lut + loop_lut * len(loops)
    total_area.ff += function_ff + loop_ff * len(loops)
    total_area.bram_18k += tree.memory.total_bram18()
    report.resources = total_area.as_dict()
    report.fu_instances = total_area.fu_instances
    if tree.ignored_pipeline:
        report.frontend_warnings.append(
            f"{tree.ignored_pipeline} static-scheduling directive(s) "
            f"(pipeline/II) ignored: {backend.id} II is emergent"
        )
    # Loop table in source order (by header position).
    order = {id(b): i for i, b in enumerate(fn.blocks)}
    report.loops = [
        tree.results[id(l.header)].report
        for l in sorted(loops, key=lambda l: order[id(l.header)])
    ]
    return report


class _LoopTree:
    """One post-order walk over a function's loop tree."""

    def __init__(self, backend, fn: Function):
        self.backend = backend
        self.memory = MemoryModel(fn)
        self.loop_info = LoopInfo(fn)
        self.results: Dict[int, _LoopResult] = {}
        self.areas: List[AreaEstimate] = []
        self.ignored_pipeline = 0
        self._counter = 0

    def process_loop(self, loop: Loop, depth: int) -> None:
        for child in loop.children:
            if id(child.header) not in self.results:
                self.process_loop(child, depth + 1)
        result = self._schedule_loop(loop, depth)
        self.results[id(loop.header)] = result
        self.areas.append(result.area)

    def _schedule_loop(self, loop: Loop, depth: int) -> _LoopResult:
        backend = self.backend
        self._counter += 1
        name = f"L{self._counter}_{loop.header.name}"
        directives = loop_directives_for(loop)
        if directives.pipeline and "pipeline" not in backend.capabilities.directives:
            self.ignored_pipeline += 1
        trip_min, trip_max = trip_range(loop, self.loop_info)

        own_blocks = [
            b
            for b in loop.blocks
            if self.loop_info.loop_for(b) is loop and b is not loop.header
        ]

        unroll = 1
        if directives.unroll_full and trip_min == trip_max:
            unroll = max(trip_max, 1)
        elif directives.unroll:
            unroll = max(1, directives.unroll)
        unroll = min(unroll, max(trip_max, 1))
        eff_trip_min = -(-trip_min // unroll)
        eff_trip_max = -(-trip_max // unroll)

        if (
            not loop.children
            and len(own_blocks) == 1
            and backend.overlaps_innermost(directives)
        ):
            dfg = build_block_dfg(
                own_blocks[0], backend.library, self.memory, unroll=unroll
            )
            counted = loop.counted_form()
            carried = carried_dependences(
                dfg, counted.indvar if counted else None, loop
            )
            sched = backend.schedule_innermost(
                dfg, carried, directives, eff_trip_min, eff_trip_max
            )
            loop_report = LoopReport(
                name=name,
                depth=depth,
                trip_count_min=eff_trip_min,
                trip_count_max=eff_trip_max,
                iteration_latency=sched.iteration_latency,
                ii=sched.ii,
                latency_min=sched.latency_min,
                latency_max=sched.latency_max,
                pipelined=True,
                unroll_factor=unroll,
                res_mii=sched.res_mii,
                rec_mii=sched.rec_mii,
            )
            return _LoopResult(
                sched.latency_min, sched.latency_max, loop_report, sched.area
            )

        # Sequential loop: compose body blocks + child loops as a DAG.
        il_min, il_max, area = self.compose_region(
            own_blocks, loop.children, unroll=unroll
        )
        il_min = max(il_min, 1)
        il_max = max(il_max, 1)
        lat_min = eff_trip_min * il_min + 2
        lat_max = eff_trip_max * il_max + 2
        loop_report = LoopReport(
            name=name,
            depth=depth,
            trip_count_min=eff_trip_min,
            trip_count_max=eff_trip_max,
            iteration_latency=il_max,
            ii=None,
            latency_min=lat_min,
            latency_max=lat_max,
            pipelined=False,
            unroll_factor=unroll,
        )
        return _LoopResult(lat_min, lat_max, loop_report, area)

    def compose_region(
        self,
        blocks: List[BasicBlock],
        child_loops: List[Loop],
        unroll: int = 1,
    ) -> Tuple[int, int, AreaEstimate]:
        """Longest path (min & max variants) through blocks + collapsed
        child loops, plus merged area."""
        units, succs = region_graph(blocks, child_loops)

        weights_min: Dict[int, int] = {}
        weights_max: Dict[int, int] = {}
        areas: List[AreaEstimate] = []
        for key, unit in units.items():
            if isinstance(unit, Loop):
                result = self.results[id(unit.header)]
                serial = 1
                if unroll > 1:
                    # Unrolling an outer loop replicates each child loop.
                    # Copies run in parallel only as far as array banking
                    # allows: each concurrent copy needs its own bank group,
                    # so ceil(unroll / banks) copies time-share one instance.
                    serial = _unroll_serialization(unit, self.memory, unroll)
                    parallel = -(-unroll // serial)
                    if parallel > 1:
                        areas.append(_replicated_area(result.area, parallel - 1))
                weights_min[key] = result.latency_min * serial
                weights_max[key] = result.latency_max * serial
            else:
                dfg = build_block_dfg(
                    unit, self.backend.library, self.memory, unroll=unroll
                )
                if dfg.nodes:
                    cycles, area = self.backend.block_cost(dfg)
                    weights_min[key] = weights_max[key] = cycles
                    areas.append(area)
                else:
                    weights_min[key] = weights_max[key] = 1

        memo: Dict[int, int] = {}

        def longest(key: int, weights: Dict[int, int]) -> int:
            if key in memo:
                return memo[key]
            memo[key] = weights[key]  # guard against (unexpected) cycles
            best = 0
            for nxt in succs[key]:
                best = max(best, longest(nxt, weights))
            memo[key] = weights[key] + best
            return memo[key]

        roots = _roots(units, succs)
        lat_min = max((longest(r, weights_min) for r in roots), default=1)
        memo.clear()
        lat_max = max((longest(r, weights_max) for r in roots), default=1)
        merged = merge_area(*areas) if areas else AreaEstimate()
        return lat_min, lat_max, merged


def _roots(units: Dict[int, object], succs: Dict[int, List[int]]) -> List[int]:
    has_pred: set = set()
    for targets in succs.values():
        has_pred.update(targets)
    roots = [key for key in units if key not in has_pred]
    return roots or list(units)


def _unroll_serialization(loop: Loop, memory: MemoryModel, unroll: int) -> int:
    """How many of ``unroll`` child-loop copies must time-share.

    The limiting buffer is the one with the fewest banks among the
    arrays the child touches; cyclic partitioning at factor *f* supplies
    *f* concurrent bank groups, so ceil(unroll / f) copies serialise.
    A child that touches no arrays replicates freely.
    """
    banks: Optional[int] = None
    for block in loop.blocks:
        for inst in block.instructions:
            site = memory.site_for(inst)
            if site is None:
                continue
            banks = (
                site.buffer.banks
                if banks is None
                else min(banks, site.buffer.banks)
            )
    if banks is None:
        return 1
    return max(1, -(-unroll // max(1, banks)))


def _replicated_area(area: AreaEstimate, copies: int) -> AreaEstimate:
    """Area of ``copies`` extra parallel instances of a bound region.

    Compute resources replicate; BRAM does not (the copies read the same
    banked buffers — banking itself is charged by the memory model).
    """
    return AreaEstimate(
        lut=area.lut * copies,
        ff=area.ff * copies,
        dsp=area.dsp * copies,
        bram_18k=0,
        fu_instances={cls: n * (copies + 1) for cls, n in area.fu_instances.items()},
    )
