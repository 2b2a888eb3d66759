"""Phase-sampled simulation: simulate 1/Nth of the trace, reconstruct the rest.

The paper evaluates every workload over 250M warm-up + 250M measured
instructions; scaling those counts down uniformly (what the figure suite
does) changes the phase mix.  This module does it properly instead, in the
SMARTS/SimPoint tradition adapted to the packed-column store:

1. **Profile** — the measured region of a :class:`~repro.workloads.packed.
   PackedTrace` is split into ``intervals`` equal-instruction intervals and
   each gets a cheap *memory-access signature* computed straight off the
   pack's derived columns (:class:`~repro.workloads.packed.PackIndex`):
   event-flag density, I-line-change rate, page/line-change rates (the
   page-cross-candidate proxy), load/store mix, branch/mispredict density,
   and mean gap.  Counts over the pack's 0/1 masks — no simulation.
2. **Cluster** — the signature vectors are z-score normalised and clustered
   into at most ``phases`` phases by a deterministic seeded k-means (greedy
   farthest-point init, fixed iteration cap).  One *representative* interval
   is chosen per phase (closest to the centroid); the phase's weight is the
   instruction mass of its members.
3. **Simulate** — only the representative intervals run, *stitched in
   trace order through one engine*: each sub-trace enters the fused record
   kernel (:func:`~repro.cpu.fastpath.drive_packed`) with a short
   *functional warm-up prefix* as its warm-up region, so measurement starts
   exactly at the interval boundary.  Because the kernel takes absolute
   warm-up limits and ``begin_measurement()`` re-baselines every statistic, the
   engine is resumable: caches, TLBs, predictors and the page-cross policy's
   filter state carry across the skipped spans instead of restarting cold
   (or, worse, artificially small) at every representative.
4. **Reconstruct** — every interval inherits its phase representative's
   per-instruction rates; instruction-weighted recombination yields a
   whole-trace :class:`~repro.cpu.simulator.SimResult` (ratio-of-sums IPC,
   scaled counters), and a percentile bootstrap over the interval population
   (:func:`~repro.experiments.stats_ci.percentile_bootstrap`) puts a
   confidence interval on the reconstructed IPC
   (``SimResult.ipc_ci_lo/ipc_ci_hi``).

The functional warm-up is an approximation — state built before the prefix
is invisible to the representative — which is why
:func:`repro.validate.check_sampled_matches_full` bounds the relative IPC
error against an occasional full run (CI runs it every cycle), and why the
reconstruction carries its own error bars.  Everything is seeded: a fixed
``SamplingConfig.seed`` makes the whole sampled run bit-exactly
reproducible.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from repro.cpu.simulator import DRIVES
from repro.experiments.stats_ci import BootstrapInterval, percentile_bootstrap
from repro.obs.tracing import trace_span
from repro.workloads.packed import PackedTrace, get_packed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.simulator import SimConfig, SimResult
    from repro.obs import Observability
    from repro.workloads.trace import Workload


#: signature feature names, in the order of each signature row (docs + introspection)
SIGNATURE_FEATURES = (
    "event_density",
    "iline_change_rate",
    "page_change_rate",
    "line_change_rate",
    "load_density",
    "store_density",
    "branch_density",
    "mispredict_density",
    "mean_gap",
)


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of one phase-sampled run (hashable; rides inside RunSpec).

    ``intervals`` is the profiling resolution — the measured region is cut
    into this many equal-instruction intervals; ``phases`` caps how many of
    them actually simulate.  ``warmup_fraction`` sizes each representative's
    functional warm-up prefix relative to its interval length (at least one
    record of warm-up always runs).  ``max_rel_error`` is the relative-IPC
    bound the validation layer asserts against full runs — carried here so
    a spec is self-describing about the fidelity it claims.
    """

    intervals: int = 64
    phases: int = 8
    warmup_fraction: float = 0.25
    seed: int = 0
    confidence: float = 0.95
    resamples: int = 2000
    max_rel_error: float = 0.02

    def __post_init__(self) -> None:
        if self.intervals < 2:
            raise ValueError(f"sampling needs >= 2 intervals, got {self.intervals}")
        if self.phases < 1:
            raise ValueError(f"sampling needs >= 1 phase, got {self.phases}")
        if not 0.0 <= self.warmup_fraction <= 4.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 4], got {self.warmup_fraction}")
        if not 0.5 <= self.confidence < 1.0:
            raise ValueError(f"confidence must be in [0.5, 1), got {self.confidence}")
        if self.resamples < 1:
            raise ValueError(f"resamples must be >= 1, got {self.resamples}")
        if self.max_rel_error <= 0.0:
            raise ValueError(
                f"max_rel_error must be positive, got {self.max_rel_error}")


@dataclass(frozen=True)
class Phase:
    """One detected phase: its representative interval and member weight."""

    #: index (into the kept-interval list) of the simulated representative
    representative: int
    #: member interval indices, ascending
    members: tuple[int, ...]
    #: total instructions across the member intervals
    instructions: int

    @property
    def weight(self) -> int:
        return self.instructions


@dataclass(frozen=True)
class PhasePlan:
    """Everything the runner/reconstruction need about one profiled pack.

    Intervals are stored in *record space*: interval ``i`` covers packed
    records ``[starts[i], ends[i])`` and spans ``instructions[i]``
    instructions; ``assignment[i]`` is its phase index.  All positions are
    plain ints so the plan is picklable and JSON-friendly.
    """

    starts: tuple[int, ...]
    ends: tuple[int, ...]
    instructions: tuple[int, ...]
    assignment: tuple[int, ...]
    phases: tuple[Phase, ...]
    #: instruction count of the profiled measured region (sum of intervals)
    total_instructions: int

    @property
    def n_intervals(self) -> int:
        return len(self.starts)

    def simulated_instructions(self) -> int:
        """Instructions actually simulated (measured regions only)."""
        return sum(self.instructions[p.representative] for p in self.phases)


def _measured_bounds(packed: PackedTrace, warmup: int, sim: int) -> tuple[int, int]:
    """Record-index bounds (first measured, one-past-last) of the window.

    Mirrors the drive loops exactly: measurement begins after the record
    whose boundary first reaches ``warmup`` instructions and ends after the
    record whose boundary first spans ``sim`` measured instructions.
    """
    cum = packed.index().cum
    if not cum or cum[-1] < warmup + sim:
        raise ValueError(
            f"packed trace {packed.name!r} covers {cum[-1] if cum else 0} "
            f"instructions, fewer than the {warmup}+{sim} sampling window")
    m = bisect_left(cum, warmup)
    e = bisect_left(cum, cum[m] + sim, m + 1)
    return m + 1, e + 1


def signatures(packed: PackedTrace, warmup: int, sim: int, intervals: int):
    """Per-interval signature rows plus interval bounds.

    Returns ``(features, starts, ends, inst)``: ``features`` holds one row of
    ``len(SIGNATURE_FEATURES)`` floats per interval, and the other three are
    int lists (record-space bounds and instruction spans).  Intervals that
    end up empty in record space (possible only when an interval is shorter
    than one record's gap) are dropped.  Each rate is a count off the pack's
    derived masks divided by the interval's record count — no simulation.
    """
    idx = packed.index()
    cum = idx.cum
    first, last = _measured_bounds(packed, warmup, sim)
    base = cum[first - 1]
    span = cum[last - 1] - base

    # interval edges in instruction space -> record space; each interval ends
    # after the record that crosses its instruction edge (same rule the drive
    # loop uses for the measurement stop), so interval k simulated alone
    # measures exactly the records profiled here
    bounds = [first]
    for k in range(1, intervals):
        edge = bisect_left(cum, base + k * span // intervals) + 1
        bounds.append(max(bounds[-1], min(edge, last)))
    bounds.append(last)
    spans = [(s, e) for s, e in zip(bounds, bounds[1:]) if e > s]
    starts = [s for s, _ in spans]
    ends = [e for _, e in spans]
    inst = [cum[e - 1] - cum[s - 1] for s, e in spans]  # first >= 1

    masks = (idx.event, idx.iline_change, idx.page_change, idx.line_change,
             idx.load, idx.store, idx.branch, idx.mispredict)
    features = [
        # the last feature is the mean gap+1
        [mask.count(1, s, e) / (e - s) for mask in masks] + [n / (e - s)]
        for (s, e), n in zip(spans, inst)
    ]
    return features, starts, ends, inst


def _sum(values: list[float]) -> float:
    """Sum of a short float row in the profile's fixed pairwise order.

    Below 8 values it adds left to right; up to 128 it keeps 8 running
    partials, folds them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and
    adds the rest one by one — the order of the vectorised array reduction
    the profile was first written with.  Float addition is not
    associative, so keeping that order (and never builtin ``sum()``, which
    compensates from Python 3.12) keeps every distance, hence every phase
    plan and recorded result, bit-identical.
    """
    n = len(values)
    total = 0.0
    if n < 8:
        for x in values:
            total += x
        return total
    r = values[:8]
    i = 8
    while i + 8 <= n:
        for j in range(8):
            r[j] += values[i + j]
        i += 8
    total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in values[i:]:
        total += x
    return total


def _dist2(a: list[float], b: list[float]) -> float:
    """Squared Euclidean distance of two rows (summed by :func:`_sum`)."""
    return _sum([(x - y) * (x - y) for x, y in zip(a, b)])


def _column_means(rows: list[list[float]]) -> list[float]:
    """Per-column means; each column is added from 0.0, row by row, in order."""
    sums = [0.0] * len(rows[0])
    for row in rows:
        sums = [s + x for s, x in zip(sums, row)]
    return [s / len(rows) for s in sums]


def _kmeans(features: list[list[float]], k: int, seed: int):
    """Deterministic seeded k-means; returns (assignment, representatives).

    Init is greedy farthest-point (k-means++ without the randomised
    D²-weighting — fully deterministic given the seeded first pick), then
    plain Lloyd iterations with a fixed cap.  The representative of each
    cluster is the member closest to its centroid (lowest index on ties).
    Every reduction keeps a fixed order (see :func:`_sum`).
    """
    n = len(features)
    k = min(k, n)
    # z-score normalise so no single feature dominates the distance metric
    mean = _column_means(features)
    var = _column_means([[(x - m) * (x - m) for x, m in zip(row, mean)]
                         for row in features])
    std = [math.sqrt(v) or 1.0 for v in var]
    z = [[(x - m) / s for x, m, s in zip(row, mean, std)] for row in features]

    rng = random.Random(seed)
    centers = [rng.randrange(n)]
    d2 = [_dist2(row, z[centers[0]]) for row in z]
    while len(centers) < k:
        far = max(range(n), key=d2.__getitem__)  # first index on ties
        if d2[far] == 0.0:
            break  # fewer distinct signatures than phases
        centers.append(far)
        d2 = [min(d, _dist2(row, z[far])) for d, row in zip(d2, z)]
    centroids = [z[c] for c in centers]

    assignment = [0] * n
    for it in range(32):
        new_assignment = []
        for row in z:
            dist = [_dist2(row, c) for c in centroids]
            new_assignment.append(min(range(len(dist)), key=dist.__getitem__))
        if new_assignment == assignment and it > 0:
            break
        assignment = new_assignment
        for c in range(len(centroids)):
            members = [row for row, a in zip(z, assignment) if a == c]
            if members:
                centroids[c] = _column_means(members)

    # re-densify cluster ids in first-seen order (empty clusters vanish) so
    # phase numbering is stable and every phase has members
    dist = [_dist2(row, centroids[a]) for row, a in zip(z, assignment)]
    remap: dict[int, int] = {}
    for c in assignment:
        remap.setdefault(c, len(remap))
    reps = [0] * len(remap)
    for c, new_c in remap.items():
        members = [i for i, a in enumerate(assignment) if a == c]
        reps[new_c] = min(members, key=dist.__getitem__)
    return [remap[c] for c in assignment], reps


def plan_phases(packed: PackedTrace, warmup: int, sim: int,
                sampling: SamplingConfig) -> PhasePlan:
    """Profile + cluster one pack's measured region into a :class:`PhasePlan`."""
    with trace_span("sample-profile", workload=packed.name,
                    intervals=sampling.intervals):
        features, starts, ends, inst = signatures(
            packed, warmup, sim, sampling.intervals)
        assignment, reps = _kmeans(features, sampling.phases, sampling.seed)

    phases = []
    for c, rep in enumerate(reps):
        members = tuple(i for i, a in enumerate(assignment) if a == c)
        phases.append(Phase(
            representative=rep,
            members=members,
            instructions=sum(inst[i] for i in members),
        ))
    return PhasePlan(
        starts=tuple(starts),
        ends=tuple(ends),
        instructions=tuple(inst),
        assignment=tuple(assignment),
        phases=tuple(phases),
        total_instructions=sum(inst),
    )


def _sub_pack(packed: PackedTrace, first: int, last: int, *,
              warmup: int, sim: int) -> PackedTrace:
    """A :class:`PackedTrace` over records ``[first, last)`` of ``packed``.

    Column slices are cheap (``array`` slices copy a few hundred KB at most)
    and feed the fused record kernel unchanged.
    """
    return PackedTrace(
        packed.name, packed.suite,
        packed.pcs[first:last], packed.vaddrs[first:last],
        packed.flags[first:last], packed.gaps[first:last],
        warmup=warmup, sim=sim,
        instructions=warmup + sim, complete=True,
    )


def _run_stitched(workload_name: str, packed: PackedTrace, plan: PhasePlan,
                  config: "SimConfig",
                  obs: Optional["Observability"] = None):
    """Simulate every representative on ONE engine, stitched in trace order.

    Returns ``(rep_results, engine, wall)`` with ``rep_results`` indexed by
    phase.  Representatives run through the same engine in ascending trace
    position, each preceded by a functional warm-up prefix of
    ``warmup_fraction`` times its interval length (never fewer than one
    record, never re-reading records an earlier segment already played).
    The record kernel takes *absolute* warm-up limits against the engine's
    cumulative instruction counter and ``begin_measurement()`` re-baselines
    every statistic, so each segment measures exactly its interval while
    long-range microarchitectural state — cache/TLB footprint, branch
    history, DRIPPER filter training — carries across the skips.  A fresh
    engine per representative would systematically *under*-count capacity
    misses (its footprint never saturates the hierarchy the way the full
    run's does); stitching is what keeps the reconstructed IPC honest.
    """
    from repro.cpu.fastpath import drive_packed
    from repro.cpu.simulator import build_engine, collect_result

    sampling = config.sampling
    cum = packed.index().cum

    def pre(i: int) -> int:
        """Instructions strictly before record ``i``."""
        return cum[i - 1] if i else 0

    base_config = replace(config, sampling=None)
    engine = build_engine(base_config)
    sampler = nullcontext()
    if obs is not None:
        obs.attach(engine, packed)
        sampler = obs.probe or sampler
    checker = None
    if base_config.validate:
        from repro.validate import InvariantChecker

        checker = InvariantChecker(obs=obs, workload=workload_name)
        checker.attach(engine)

    order = sorted(range(len(plan.phases)),
                   key=lambda j: plan.starts[plan.phases[j].representative])
    rep_results: list = [None] * len(plan.phases)
    prev_end = 0  # one past the last record an earlier segment played
    wall = 0.0
    for j in order:
        phase = plan.phases[j]
        rep = phase.representative
        start, end = plan.starts[rep], plan.ends[rep]
        inst = plan.instructions[rep]

        # p: the last record boundary at or before the prefix target
        target = pre(start) - int(round(inst * sampling.warmup_fraction))
        p = bisect_right(cum, target) if target >= 0 else -1
        p = max(min(prev_end, start - 1), min(p, start - 1), 0)
        sub_warm = pre(start) - pre(p)

        sub = _sub_pack(packed, p, end, warmup=sub_warm, sim=inst)
        # warm-up limits are absolute against the carried instruction counter
        sub_config = replace(base_config,
                             warmup_instructions=engine.instructions + sub_warm,
                             sim_instructions=inst)
        with trace_span("phase", workload=workload_name, phase=j,
                        representative=rep, weight=phase.instructions,
                        warmup=sub_warm, sim=inst), sampler:
            wall += drive_packed(engine, sub, sub_config)
        with sampler:
            result = collect_result(engine, workload_name, sub_config)
        if checker is not None:
            checker.check_final(engine, result)
        rep_results[j] = result
        prev_end = end
    return rep_results, engine, wall


#: SimResult count fields scaled by instruction mass during reconstruction
_COUNT_FIELDS = (
    "prefetch_fills", "prefetch_useful", "prefetch_useless", "prefetch_late",
    "pgc_candidates", "pgc_issued", "pgc_discarded", "pgc_useful",
    "pgc_useless", "demand_walks", "speculative_walks", "tlb_prefetch_hits",
    "dram_reads", "dram_writes", "branches", "branch_mispredicts",
    "l1d_demand_misses", "tlb_prefetch_evicted_unused",
)

#: SimResult per-kilo-instruction / ratio fields recombined by instruction-
#: weighted mean (exact for the MPKIs, documented approximation for the
#: access-denominated miss rates)
_RATE_FIELDS = (
    "dtlb_mpki", "itlb_mpki", "stlb_mpki", "l1i_mpki", "l1d_mpki",
    "l2c_mpki", "llc_mpki", "l1d_miss_rate", "llc_miss_rate",
    "stlb_miss_rate",
)


def reconstruct(plan: PhasePlan, rep_results: "list[SimResult]",
                config: "SimConfig") -> "tuple[SimResult, BootstrapInterval]":
    """Recombine per-phase results into a whole-trace result + IPC interval.

    Every interval inherits its phase representative's per-instruction
    rates; cycles and counters are scaled by instruction mass and summed,
    so the reconstructed IPC is the instruction-weighted harmonic mean of
    the phase IPCs.  The bootstrap resamples the *interval* population
    (seeded), capturing how much the reconstruction could move had the
    phase mix been drawn differently.
    """
    from repro.cpu.simulator import SimResult

    sampling = config.sampling
    insts = plan.instructions  # per kept interval
    cycles = [inst * rep_results[phase].cycles / rep_results[phase].instructions
              for inst, phase in zip(insts, plan.assignment)]
    total_inst = sum(insts)
    total_cycles = sum(cycles)

    def _ratio(idx: list[int]) -> float:
        # builtin sum() over the cycles, as always: its float rounding is
        # part of the recorded CI bounds on every interpreter
        resampled_cycles = sum(map(cycles.__getitem__, idx))
        if not resampled_cycles:
            return 0.0
        return sum(map(insts.__getitem__, idx)) / resampled_cycles

    lo, hi = percentile_bootstrap(
        len(insts), _ratio, confidence=sampling.confidence,
        resamples=sampling.resamples, seed=sampling.seed)
    ipc_ci = BootstrapInterval(
        total_inst / total_cycles if total_cycles else 0.0, lo, hi,
        sampling.confidence)

    counts = {f: 0.0 for f in _COUNT_FIELDS}
    rates = {f: 0.0 for f in _RATE_FIELDS}
    for phase, rep in zip(plan.phases, rep_results):
        scale = phase.instructions / rep.instructions
        for f in _COUNT_FIELDS:
            counts[f] += getattr(rep, f) * scale
        for f in _RATE_FIELDS:
            rates[f] += getattr(rep, f) * phase.instructions
    for f in _RATE_FIELDS:
        rates[f] /= total_inst if total_inst else 1

    anchor = rep_results[0]
    result = SimResult(
        workload=anchor.workload,
        prefetcher=anchor.prefetcher,
        policy=anchor.policy,
        instructions=total_inst,
        cycles=total_cycles,
        ipc=total_inst / total_cycles if total_cycles else 0.0,
        requested_instructions=config.sim_instructions,
        sampled_intervals=plan.n_intervals,
        sampled_phases=len(plan.phases),
        ipc_ci_lo=ipc_ci.lo,
        ipc_ci_hi=ipc_ci.hi,
        **{f: int(round(v)) for f, v in counts.items()},
        **rates,
    )
    return result, ipc_ci


def simulate_sampled(
    workload: "Workload", config: "SimConfig", *,
    obs: Optional["Observability"] = None,
) -> "SimResult":
    """Run one workload phase-sampled under ``config`` (``config.sampling`` set).

    Profiles + clusters the packed trace, simulates one representative
    interval per phase (stitched in trace order through a single resumable
    engine, each behind a functional warm-up prefix), and returns the
    reconstructed whole-trace :class:`SimResult` with bootstrap IPC bounds
    in ``ipc_ci_lo``/``ipc_ci_hi``.  Bit-exactly deterministic for a fixed
    ``SamplingConfig.seed``.
    """
    sampling = config.sampling
    if sampling is None:
        raise ValueError("simulate_sampled needs config.sampling set")
    # one per *sampled run*; the stitched per-representative drives
    # additionally count under the loop that ran (always a live stream)
    DRIVES.inc(mode="sampled")
    wall_start = perf_counter()
    packed = get_packed(workload, config.warmup_instructions,
                        config.sim_instructions)
    if not packed.complete:
        raise ValueError(
            f"workload {workload.name!r} ended after {packed.instructions} "
            f"instructions, before the sampling window "
            f"({config.warmup_instructions}+{config.sim_instructions}) completed")
    plan = plan_phases(packed, config.warmup_instructions,
                       config.sim_instructions, sampling)
    rep_results, engine, _ = _run_stitched(
        workload.name, packed, plan, config, obs=obs)
    with trace_span("sample-reconstruct", workload=workload.name,
                    phases=len(plan.phases), intervals=plan.n_intervals):
        result, _ipc_ci = reconstruct(plan, rep_results, config)
    wall_seconds = perf_counter() - wall_start
    if obs is not None and engine is not None:
        obs.finish(engine, workload, config, result, wall_seconds)
    return result
