"""Static cost model: prune design points without compiling them.

The explorer cannot afford to push every cross-product point through both
flows, so this module reads the kernel's loop nest *statically* — trip
counts off :class:`repro.mlir.dialects.affine.ForOp` bounds (the same
constant-bound analysis the HLS frontend's dependence test leans on via
:mod:`repro.hls.affine_summary`), operation mix out of the innermost
bodies, array shapes off the kernel spec — and answers two questions per
candidate :class:`~repro.flows.OptimizationConfig`:

* :func:`feasibility` — is the point *expressible* on this nest at all
  (unroll factor beyond a trip count, partition factor beyond the
  innermost array dim, II without a pipeline)?
* :func:`estimate` — a coarse latency/resource prediction, good enough to
  discard points whose replicated functional units could never fit the
  device budget.  It deliberately mirrors the engine's shape (outer
  unroll buys parallel copies only up to the memory bank count) without
  running the scheduler.

Estimates are *pruning heuristics*, never results: every surviving point
is still compiled through the real flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..flows.config import OptimizationConfig, loop_level
from ..hls.device import DEVICES, Device
from ..hls.memory import PORTS_PER_BANK
from ..mlir.dialects.affine import ForOp
from ..workloads.polybench import KernelSpec

__all__ = [
    "BodyProfile",
    "KernelProfile",
    "PointEstimate",
    "feasibility",
    "estimate",
    "prune_reason",
    "device_for",
]

# Rough per-op area of one replicated datapath copy, in the same spirit
# (and order of magnitude) as repro.hls.operators — kept independent so
# the cost model never imports the scheduler it exists to avoid running.
_EST_LUT_PER_OP = 40
_EST_FF_PER_OP = 32
_EST_DSP_PER_MUL = 3
# Pipeline control overhead (the engine charges control LUTs plus
# II-staged FFs for a pipelined loop): without this term a pipelined
# point estimate-dominates the un-pipelined same-shape point, which the
# measured vectors contradict — the un-pipelined design is smaller.
_EST_PIPELINE_CTRL_LUT = 24
_EST_PIPELINE_CTRL_FF = 16
# One 18K block per bank per partitioned array: makes partition factor
# visible as an estimated cost axis, so a higher factor that buys no
# additional speedup is estimate-dominated instead of estimate-tied.
_EST_BRAM_PER_BANK = 1
# Loop control (increment/compare/branch) per loop iteration, at every
# nest level.  Unrolling level L divides that level's iteration count,
# which is the whole measured latency edge of an otherwise bank-starved
# outer unroll (gemm u1x2: exactly trip-count cycles faster than
# baseline) — without this term such points estimate latency-tied with
# strictly worse area and sink to the last non-dominated-sort layers.
_EST_LOOP_OVERHEAD = 1.0


@dataclass
class BodyProfile:
    """One innermost loop body, as the achieved-II model sees it.

    The engine floors a pipelined loop's II at ``max(res_mii, rec_mii)``
    (:mod:`repro.hls.modulo`): requesting II=1 on a body that the memory
    system can only feed every other cycle *saturates* rather than
    speeds up.  These two numbers are the static shadows of those
    floors, computed without building a DFG.
    """

    iters: int  # innermost iterations this body runs across the nest
    entries: int = 0  # times the loop is entered (pipeline refills here)
    peak_accesses: int = 0  # most loads+stores hitting any single buffer
    # A load and a store on the same buffer whose subscripts are all
    # invariant in the innermost IV — a memory-carried reduction
    # (``C[i][j] += ...`` inside the k-loop), distance-1 RAW, II >= 2.
    carried_reduction: bool = False

    def ii_floor(self, banks: int) -> int:
        """Lower bound on the II the engine can achieve for this body.

        Port floor: ``peak_accesses`` spread over ``banks`` dual-ported
        banks — pigeonhole puts this at or below the engine's per-bank
        ``res_mii``, so the floor is admissible.  Recurrence floor: a
        memory-carried reduction needs the store before the next load.
        """
        port = -(-self.peak_accesses // (PORTS_PER_BANK * max(1, banks)))
        recurrence = 2 if self.carried_reduction else 1
        return max(port, recurrence, 1)


@dataclass
class KernelProfile:
    """What the cost model knows about one kernel at one size."""

    kernel: str
    depth: int = 0
    # Smallest constant trip count seen at each loop level (None entries
    # mean some loop at that level has non-constant bounds).
    min_trip_by_level: Dict[int, Optional[int]] = field(default_factory=dict)
    # Total innermost iterations across the whole nest forest.
    total_iters: int = 0
    ops_per_iter: int = 0  # arithmetic ops in innermost bodies (avg)
    muls_per_iter: int = 0
    mem_per_iter: int = 0  # loads+stores in innermost bodies (avg)
    min_inner_dim: Optional[int] = None  # smallest innermost array extent
    array_count: int = 0
    bodies: List[BodyProfile] = field(default_factory=list)
    # Total iterations executed by loops at each level — the loop
    # control (increment/compare/branch) the engine charges per
    # iteration, which unrolling at that level amortises.
    loop_iters_by_level: Dict[int, int] = field(default_factory=dict)

    @staticmethod
    def from_spec(spec: KernelSpec) -> "KernelProfile":
        profile = KernelProfile(kernel=spec.name)
        inner_bodies = 0

        def visit(op, enclosing_iters: Optional[int]):
            nonlocal inner_bodies
            for region in op.regions:
                for block in region.blocks:
                    for inner in block.operations:
                        if inner.name != "affine.for":
                            visit(inner, enclosing_iters)
                            continue
                        level = loop_level(inner)
                        trips = ForOp(inner).trip_count()
                        profile.depth = max(profile.depth, level + 1)
                        seen = profile.min_trip_by_level.get(level, None)
                        if trips is not None:
                            profile.min_trip_by_level[level] = (
                                trips if seen is None else min(seen, trips)
                            )
                        else:
                            profile.min_trip_by_level.setdefault(level, None)
                        iters = (
                            None
                            if trips is None or enclosing_iters is None
                            else enclosing_iters * trips
                        )
                        profile.loop_iters_by_level[level] = (
                            profile.loop_iters_by_level.get(level, 0) + (iters or 0)
                        )
                        if level == 0:
                            inner_bodies += 1
                            profile.total_iters += iters or 0
                            iv = ForOp(inner).induction_variable
                            # Per-buffer (total, IV-invariant loads,
                            # IV-invariant stores) for the II floors.
                            access: Dict[int, List[int]] = {}
                            float_ops = 0
                            for body_op in inner.walk():
                                if body_op.name in ("affine.load", "affine.store"):
                                    profile.mem_per_iter += 1
                                    skip = 1 if body_op.name == "affine.load" else 2
                                    ref = body_op.operands[skip - 1]
                                    subscripts = body_op.operands[skip:]
                                    entry = access.setdefault(id(ref), [0, 0, 0])
                                    entry[0] += 1
                                    if all(ix is not iv for ix in subscripts):
                                        entry[1 if skip == 1 else 2] += 1
                                elif body_op.name.startswith("arith."):
                                    profile.ops_per_iter += 1
                                    if body_op.name.endswith("f"):
                                        float_ops += 1
                                    if "mul" in body_op.name:
                                        profile.muls_per_iter += 1
                            # A loop-carried value (iter_args) through a
                            # multi-cycle float op is a register
                            # recurrence: rec_mii is at least the
                            # producer latency, so the II floors at 2
                            # just like a memory-carried reduction.
                            register_reduction = (
                                len(ForOp(inner).iter_init_operands) > 0
                                and float_ops > 0
                            )
                            profile.bodies.append(
                                BodyProfile(
                                    iters=iters or 0,
                                    entries=(
                                        (iters or 0) // trips
                                        if trips
                                        else enclosing_iters or 0
                                    ),
                                    peak_accesses=max(
                                        (e[0] for e in access.values()), default=0
                                    ),
                                    carried_reduction=register_reduction
                                    or any(
                                        e[1] and e[2] for e in access.values()
                                    ),
                                )
                            )
                        visit(inner, iters)

        visit(spec.fn.op, 1)
        if inner_bodies > 1:
            profile.ops_per_iter = -(-profile.ops_per_iter // inner_bodies)
            profile.muls_per_iter = -(-profile.muls_per_iter // inner_bodies)
            profile.mem_per_iter = -(-profile.mem_per_iter // inner_bodies)
        dims = [shape[-1] for shape in spec.array_args.values() if shape]
        profile.min_inner_dim = min(dims) if dims else None
        profile.array_count = len(spec.array_args)
        return profile


@dataclass
class PointEstimate:
    """Coarse prediction for one design point (pruning and ranking)."""

    latency: float
    lut: int
    ff: int
    dsp: int
    bram_18k: int = 0
    # Admissible DSP floor: the un-replicated multiplier cost.  The
    # ``dsp`` field charges full copy replication (right for *ranking* —
    # over-unrolled points should sort behind balanced ones), but the
    # binder shares multipliers across serialised copies, so replication
    # is NOT a lower bound on the measured count; the base cost is.
    dsp_bound: int = 0
    # Admissible latency floor: achieved-II cycles (or one cycle per
    # iteration when unpipelined) divided by the full unroll-factor
    # product — an upper bound on any concurrency the engine can mint,
    # unlike the bank-capped ``speedup`` the ranking estimate uses.
    latency_bound: float = 0.0

    def vector(self) -> Tuple[float, float, float, float, float]:
        """Minimised objective vector, same order as the measured one
        (:data:`repro.dse.pareto.OBJECTIVES`) so the search strategies
        can apply the one dominance definition to both spaces."""
        return (
            self.latency,
            float(self.lut),
            float(self.ff),
            float(self.dsp),
            float(self.bram_18k),
        )

    def bound_vector(self) -> Tuple[float, float, float, float, float]:
        """Componentwise *lower bound* on the measured objective vector.

        This is the admissible-heuristic face of the estimate — only
        quantities the engine provably cannot beat: the achieved-II
        latency floor (:attr:`latency_bound`), the un-replicated DSP
        cost (:attr:`dsp_bound`), and one BRAM block per bank per array.
        LUT/FF have no useful static floor (the binder shares units and
        integer ops can be nearly free), so those axes bound at zero and
        rely on the search's measured floor lift instead.  The halving
        search prunes branch-and-bound style on this vector — a
        candidate whose *bound* is strictly dominated by a *measured*
        point is provably off the frontier, so the pruning cannot change
        the reduced result (see :mod:`repro.testing.oracle`).
        """
        return (
            self.latency_bound,
            0.0,
            0.0,
            float(self.dsp_bound),
            float(self.bram_18k),
        )

    def fits(self, device: Device) -> bool:
        return (
            self.lut <= device.lut
            and self.ff <= device.ff
            and self.dsp <= device.dsp
            and self.bram_18k <= device.bram_18k
        )


def _merged_unroll(config: OptimizationConfig) -> Dict[int, int]:
    levels = dict(config.unroll_levels)
    if config.unroll_innermost and config.unroll_innermost > 1:
        levels[0] = max(levels.get(0, 1), config.unroll_innermost)
    return levels


def feasibility(
    profile: KernelProfile, config: OptimizationConfig
) -> Tuple[bool, Optional[str]]:
    """``(True, None)`` when the point is expressible, else a reason."""
    for level, factor in sorted(_merged_unroll(config).items()):
        if factor <= 1:
            continue
        if level >= profile.depth:
            return False, f"no loop at level {level} (nest depth {profile.depth})"
        trips = profile.min_trip_by_level.get(level)
        if trips is not None and factor > trips:
            return False, (
                f"unroll x{factor} at level {level} exceeds trip count {trips}"
            )
    if config.partition:
        factor = config.partition.get("factor") or 1
        if factor > 1 and profile.array_count == 0:
            return False, "partitioning requested but kernel has no arrays"
        if (
            factor > 1
            and profile.min_inner_dim is not None
            and factor > profile.min_inner_dim
        ):
            return False, (
                f"partition factor {factor} exceeds innermost array dim "
                f"{profile.min_inner_dim}"
            )
    if not config.pipeline_innermost and config.ii > 1:
        return False, "target II without pipelining is meaningless"
    return True, None


def estimate(
    profile: KernelProfile,
    config: OptimizationConfig,
    device: Optional[Device] = None,
) -> PointEstimate:
    """Predict latency (cycles, coarse) and datapath area for pruning.

    Mirrors the engine's cost structure without scheduling: pipelining
    collapses innermost iteration latency towards II, outer unrolling
    replicates the datapath but only speeds things up to the extent the
    partition factor provides memory banks to feed the copies.
    """
    levels = _merged_unroll(config)
    banks = (config.partition or {}).get("factor") or 1
    copies = 1
    speedup = 1.0
    for level, factor in levels.items():
        if factor <= 1:
            continue
        if level == 0:
            # Innermost unrolling widens the body; memory ports
            # (PORTS_PER_BANK per bank) bound how much of it runs concurrently.
            copies *= factor
            speedup *= min(factor, max(1, PORTS_PER_BANK * banks))
        else:
            # Outer unrolling replicates the datapath *regardless* of
            # whether the banks can feed the copies — the engine
            # serialises unfed copies, so they cost area without buying
            # speedup.  Charging the full replication keeps an
            # over-unrolled point estimate-dominated by its balanced
            # sibling, matching the measured dominance.
            copies *= factor
            speedup *= min(factor, max(1, banks))
    iter_cycles = float(profile.ops_per_iter + profile.mem_per_iter) or 1.0
    if config.pipeline_innermost:
        iter_cycles = max(float(config.ii), 1.0)
    latency = profile.total_iters * iter_cycles / max(speedup, 1.0)
    floor_cycles = float(profile.total_iters)
    if config.pipeline_innermost and profile.bodies and profile.total_iters:
        # Per-body achieved II: the engine saturates a requested II at
        # the body's port/recurrence floor, which is why ``pipe-ii1``
        # and ``pipe-ii2`` twins measure identically on reduction
        # kernels.  Modelling the floor ranks such twins adjacently
        # instead of a layer apart — the difference between a budgeted
        # search covering the frontier early and covering it last.
        requested = max(float(config.ii), 1.0)
        floor_cycles = sum(
            body.iters * max(requested, float(body.ii_floor(banks)))
            for body in profile.bodies
        )
        latency = floor_cycles / max(speedup, 1.0)
        # Pipeline fill: the engine pays the iteration latency (IL) once
        # per loop *entry* before the II-paced steady state — at MINI
        # trip counts the fill rivals the steady state, and without it
        # every pipelined point estimate-dominates the unpipelined
        # unroll+partition points that measure onto the frontier.  The
        # serial op count stands in for IL.
        latency += sum(body.entries for body in profile.bodies) * float(
            profile.ops_per_iter + profile.mem_per_iter
        )
    elif config.pipeline_innermost:
        floor_cycles = profile.total_iters * max(float(config.ii), 1.0)
    # Loop control overhead runs serially regardless of datapath
    # parallelism; unrolling level L amortises level L's own share.
    latency += sum(
        level_iters * _EST_LOOP_OVERHEAD / max(1, levels.get(level, 1))
        for level, level_iters in profile.loop_iters_by_level.items()
    )
    factor_product = 1
    for factor in levels.values():
        factor_product *= max(1, factor)
    ops = profile.ops_per_iter * copies
    lut = ops * _EST_LUT_PER_OP
    ff = ops * _EST_FF_PER_OP
    if config.pipeline_innermost:
        lut += _EST_PIPELINE_CTRL_LUT
        # Control FF tracks the *achieved* II (the iteration-weighted
        # floor), not the requested one: the engine's stage registers
        # depend on the II the schedule actually settles at, so two
        # requested IIs below the floor must estimate identically —
        # otherwise measured ties rank a non-dominated-sort layer apart.
        achieved = (
            floor_cycles / profile.total_iters
            if profile.total_iters
            else max(float(config.ii), 1.0)
        )
        ff += int(_EST_PIPELINE_CTRL_FF * max(achieved, 1.0))
    return PointEstimate(
        latency=latency,
        lut=lut,
        ff=ff,
        dsp=profile.muls_per_iter * copies * _EST_DSP_PER_MUL,
        bram_18k=profile.array_count * max(1, banks) * _EST_BRAM_PER_BANK,
        dsp_bound=profile.muls_per_iter * _EST_DSP_PER_MUL,
        latency_bound=floor_cycles / factor_product,
    )


def prune_reason(
    profile: KernelProfile,
    config: OptimizationConfig,
    device: Device,
) -> Optional[str]:
    """``None`` when the point should compile; otherwise why it was cut."""
    ok, reason = feasibility(profile, config)
    if not ok:
        return reason
    est = estimate(profile, config, device)
    if not est.fits(device):
        return (
            f"estimated datapath (~{est.lut} LUT / {est.dsp} DSP) "
            f"exceeds {device.name} budget"
        )
    return None


def device_for(name: str) -> Device:
    try:
        return DEVICES[name]
    except KeyError:
        raise ValueError(
            f"unknown device {name!r}; valid: {sorted(DEVICES)}"
        ) from None
