"""Single-core simulation driver.

Assembles a full system (core engine + hierarchy + virtual memory + chosen
prefetcher and page-cross policy), runs a workload for warm-up + measured
instructions, and returns a :class:`SimResult` with everything the paper's
figures report: IPC, MPKIs, prefetch coverage/accuracy, and page-cross
usefulness counters.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.core.ensemble import PolicyEnsemble, dispatch_of
from repro.core.policies import DiscardPgc, PageCrossPolicy
from repro.cpu.core import CoreEngine
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.metrics import get_metrics
from repro.obs.tracing import trace_span
from repro.params import DEFAULT_PARAMS, SystemParams
from repro.prefetch import make_l1d_prefetcher, make_l2_prefetcher
from repro.prefetch.base import L1dPrefetcher
from repro.prefetch.l2_adapters import L2Prefetcher
from repro.vm.page_table import LargePagePolicy, PageTable
from repro.vm.psc import SplitPsc
from repro.vm.tlb import Tlb
from repro.vm.walker import PageWalker
from repro.workloads.trace import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sampling import SamplingConfig
    from repro.obs import Observability

#: builds a fresh policy per run (policies are stateful and must not be shared)
PolicyFactory = Callable[[], PageCrossPolicy]

#: one increment per drive-loop entry, labelled by the loop that actually
#: ran: ``generator`` | ``fused`` (single core),
#: ``mix-generator`` | ``mix-packed`` (one per mix), and ``sampled`` (one
#: per phase-sampled run, whose stitched segments count as well) — the
#: fast-path-vs-fallback ratio of a grid is readable off the merged metrics
DRIVES = get_metrics().counter(
    "sim.drives",
    "drive-loop entries by mode (generator/fused/"
    "mix-generator/mix-packed/sampled)")

#: one increment per drive loop, labelled by where its L1D prefetch
#: candidates came from: ``replayed`` (the pack's recorded
#: :class:`~repro.workloads.packed.PrefetchStream`) or ``live`` (the
#: engine's prefetcher was called)
PREFETCH_STREAMS = get_metrics().counter(
    "sim.prefetch_streams",
    "drive loops by prefetch-candidate source (replayed/live)")


#: one increment per config handed to :func:`simulate_policies`, by how its
#: result came about: ``led`` (a drive it led, alone or in lockstep — one
#: per drive simulate_policies starts) or ``shared`` (a lockstep drive led
#: by another config, which it agreed with on every page-cross decision);
#: plus one ``diverged`` per member dropped from a lockstep drive, which
#: then runs again in a later drive
POLICY_RUNS = get_metrics().counter(
    "sim.policy_runs",
    "simulate_policies configs by outcome (led/shared/diverged)")


def count_drive(mode: str, *, replayed: bool = False) -> None:
    """Account one drive-loop entry in ``sim.drives`` and ``sim.prefetch_streams``."""
    DRIVES.inc(mode=mode)
    PREFETCH_STREAMS.inc(source="replayed" if replayed else "live")


def raise_if_truncated(engine: CoreEngine, name: str, measuring: bool,
                       warm_limit: int, sim_limit: int) -> None:
    """Raise when the trace ran out before the warm-up or the measured region ended."""
    if not measuring:
        raise ValueError(
            f"workload {name!r} ended after {engine.instructions} instructions, "
            f"before the {warm_limit}-instruction warm-up completed"
        )
    if engine.measured_instructions < sim_limit:
        raise ValueError(
            f"workload {name!r} ended after {engine.instructions} instructions, "
            f"truncating the measured region to "
            f"{engine.measured_instructions} of the requested "
            f"{sim_limit} instructions"
        )


@dataclass
class SimConfig:
    """One simulation's knobs."""

    prefetcher: str = "berti"
    policy_factory: PolicyFactory = DiscardPgc
    l2_prefetcher: str = "none"
    warmup_instructions: int = 20_000
    sim_instructions: int = 60_000
    params: SystemParams = field(default_factory=lambda: DEFAULT_PARAMS)
    large_page_fraction: float = 0.0
    epoch_instructions: int = 2048
    prefetcher_extra_storage: int = 0
    asid: int = 0
    #: attach a runtime :class:`~repro.validate.InvariantChecker` to the run
    #: (conservation laws checked per epoch and at collect time); purely
    #: observational — a validated run produces the same SimResult
    validate: bool = False
    #: drive through the fused record kernel (:mod:`repro.cpu.fastpath`)
    #: over a cached :class:`~repro.workloads.packed.PackedTrace` instead of
    #: the per-record generator loop; results are bit-identical either way
    packed: bool = False
    #: phase-sampled simulation (:mod:`repro.experiments.sampling`): profile
    #: the packed trace into phases, simulate one representative interval
    #: per phase, and reconstruct the whole-trace result with bootstrap
    #: confidence bounds.  ``None`` (the default) simulates the full window;
    #: a sampled result is an *approximation* and therefore DOES enter the
    #: result-cache fingerprint, unlike ``packed``
    sampling: Optional["SamplingConfig"] = None


@dataclass
class SimResult:
    """Measured-region statistics of one run."""

    workload: str
    prefetcher: str
    policy: str
    instructions: int
    cycles: float
    ipc: float
    # MPKIs (demand)
    dtlb_mpki: float
    itlb_mpki: float
    stlb_mpki: float
    l1i_mpki: float
    l1d_mpki: float
    l2c_mpki: float
    llc_mpki: float
    # miss rates (demand)
    l1d_miss_rate: float
    llc_miss_rate: float
    stlb_miss_rate: float
    # prefetching (all L1D prefetches)
    prefetch_fills: int
    prefetch_useful: int
    prefetch_useless: int
    prefetch_late: int
    # page-cross prefetching
    pgc_candidates: int
    pgc_issued: int
    pgc_discarded: int
    pgc_useful: int
    pgc_useless: int
    # virtual memory activity
    demand_walks: int
    speculative_walks: int
    tlb_prefetch_hits: int
    # DRAM traffic
    dram_reads: int
    dram_writes: int
    # branch prediction (hashed perceptron predictor of Table IV)
    branches: int = 0
    branch_mispredicts: int = 0
    #: raw demand L1D misses over the measured region (the MPKI above is a
    #: derived rate; coverage needs the exact count)
    l1d_demand_misses: int = 0
    #: measured-region length the config asked for; `instructions` is what
    #: actually retired (finite traces can end early — `simulate` raises on
    #: truncation, but journaled/cached records keep both for auditing)
    requested_instructions: int = 0
    #: prefetch-installed TLB entries evicted without serving a demand access
    #: (measured region, dTLB + sTLB)
    tlb_prefetch_evicted_unused: int = 0
    #: phase-sampled reconstruction provenance (0/0.0 on full runs): how many
    #: profiled intervals and detected phases produced this result, and the
    #: bootstrap confidence bounds on the reconstructed IPC
    #: (:mod:`repro.experiments.sampling`)
    sampled_intervals: int = 0
    sampled_phases: int = 0
    ipc_ci_lo: float = 0.0
    ipc_ci_hi: float = 0.0

    @property
    def branch_mpki(self) -> float:
        """Branch mispredictions per kilo-instruction (measured region)."""
        return 1000.0 * self.branch_mispredicts / self.instructions if self.instructions else 0.0

    @property
    def branch_mispredict_rate(self) -> float:
        """Fraction of predicted branches that mispredicted."""
        return self.branch_mispredicts / self.branches if self.branches else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches that served at least one demand hit."""
        done = self.prefetch_useful + self.prefetch_useless
        return self.prefetch_useful / done if done else 0.0

    @property
    def prefetch_coverage(self) -> float:
        """Fraction of would-be demand misses covered by prefetching."""
        would_be = self.prefetch_useful + self.l1d_demand_misses
        return self.prefetch_useful / would_be if would_be else 0.0

    @property
    def pgc_accuracy(self) -> float:
        """Useful fraction of resolved page-cross prefetches."""
        done = self.pgc_useful + self.pgc_useless
        return self.pgc_useful / done if done else 0.0

    @property
    def pgc_useful_pki(self) -> float:
        """Useful page-cross prefetches per kilo-instruction (Figure 13)."""
        return 1000.0 * self.pgc_useful / self.instructions if self.instructions else 0.0

    @property
    def pgc_useless_pki(self) -> float:
        """Useless page-cross prefetches per kilo-instruction (Figure 13)."""
        return 1000.0 * self.pgc_useless / self.instructions if self.instructions else 0.0

    def speedup_over(self, baseline: "SimResult") -> float:
        """IPC speedup of this run over a baseline run of the same workload."""
        if baseline.workload != self.workload:
            raise ValueError(
                f"speedup_over compares runs of the same workload; got {self.workload!r} vs {baseline.workload!r}"
            )
        if baseline.ipc == 0:
            raise ValueError(
                f"cannot compute speedup over baseline {baseline.policy!r} on "
                f"{baseline.workload!r}: its IPC is zero (did the baseline run retire anything?)"
            )
        return self.ipc / baseline.ipc


def build_engine(config: SimConfig, *, shared_llc=None, shared_dram=None,
                 prefetcher: Optional[L1dPrefetcher] = None,
                 l2_prefetcher: Optional[L2Prefetcher] = None) -> CoreEngine:
    """Construct a fully wired core engine from a :class:`SimConfig`."""
    params = config.params
    hierarchy = MemoryHierarchy(params, shared_llc=shared_llc, shared_dram=shared_dram)
    large = LargePagePolicy(config.large_page_fraction, seed=7)
    page_table = PageTable(asid=config.asid, large_pages=large)
    psc = SplitPsc(params.psc)
    walker = PageWalker(page_table, psc, hierarchy.ptw_read)
    dtlb = Tlb(params.dtlb)
    itlb = Tlb(params.itlb)
    stlb = Tlb(params.stlb)
    if prefetcher is None:
        prefetcher = make_l1d_prefetcher(
            config.prefetcher, extra_storage_bytes=config.prefetcher_extra_storage
        )
    if l2_prefetcher is None and config.l2_prefetcher not in ("none", "no-l2"):
        l2_prefetcher = make_l2_prefetcher(config.l2_prefetcher)
    policy = config.policy_factory()
    return CoreEngine(
        params,
        hierarchy,
        page_table,
        walker,
        dtlb,
        itlb,
        stlb,
        prefetcher,
        policy,
        l2_prefetcher=l2_prefetcher,
        epoch_instructions=config.epoch_instructions,
    )


def collect_result(engine: CoreEngine, workload_name: str, config: SimConfig) -> SimResult:
    """Assemble a :class:`SimResult` from a finished engine."""
    engine.hierarchy.finalize()
    instructions = engine.measured_instructions
    cycles = engine.measured_cycles
    h = engine.hierarchy
    pf = h.l1d.measured_prefetch
    pgc = engine.pgc.measured()
    return SimResult(
        workload=workload_name,
        prefetcher=engine.prefetcher.name,
        policy=engine.policy.name,
        instructions=instructions,
        cycles=cycles,
        ipc=instructions / cycles if cycles > 0 else 0.0,
        dtlb_mpki=engine.dtlb.stats.mpki(instructions),
        itlb_mpki=engine.itlb.stats.mpki(instructions),
        stlb_mpki=engine.stlb.stats.mpki(instructions),
        l1i_mpki=h.l1i.demand_stats.mpki(instructions),
        l1d_mpki=h.l1d.demand_stats.mpki(instructions),
        l2c_mpki=h.l2c.demand_stats.mpki(instructions),
        llc_mpki=h.llc_core_stats.mpki(instructions),
        l1d_miss_rate=h.l1d.demand_stats.miss_rate,
        llc_miss_rate=h.llc_core_stats.miss_rate,
        stlb_miss_rate=engine.stlb.stats.miss_rate,
        prefetch_fills=pf["fills"],
        prefetch_useful=pf["useful"],
        prefetch_useless=pf["useless"],
        prefetch_late=pf["late"],
        pgc_candidates=pgc["candidates"],
        pgc_issued=pgc["issued"],
        pgc_discarded=pgc["discarded"],
        pgc_useful=pf["pgc_useful"],
        pgc_useless=pf["pgc_useless"],
        demand_walks=engine.walker.measured_demand_walks,
        speculative_walks=engine.walker.measured_speculative_walks,
        tlb_prefetch_hits=(
            engine.stlb.measured_prefetch_hits + engine.dtlb.measured_prefetch_hits
        ),
        tlb_prefetch_evicted_unused=(
            engine.stlb.measured_prefetch_evicted_unused
            + engine.dtlb.measured_prefetch_evicted_unused
        ),
        dram_reads=h.dram.measured_reads,
        dram_writes=h.dram.measured_writes,
        branches=engine.branch_predictor.measured_predictions,
        branch_mispredicts=engine.branch_predictor.measured_mispredictions,
        l1d_demand_misses=h.l1d.demand_stats.measured_misses,
        requested_instructions=config.sim_instructions,
    )


def drive(engine: CoreEngine, workload: Workload, config: SimConfig) -> float:
    """Feed the workload through a built engine (warm-up + measured region).

    Returns the wall-clock seconds spent; raises :class:`ValueError` when the
    trace ends before warm-up completes or truncates the measured region.
    Split out of :func:`simulate` so harnesses (e.g. the differential suite
    in :mod:`repro.validate`) can run custom-wired engines through exactly
    the production drive loop.
    """
    warm_limit = config.warmup_instructions
    sim_limit = config.sim_instructions
    count_drive("generator")
    step = engine.step
    measuring = False
    wall_start = perf_counter()
    # The loop runs until the *measured* region is complete, not until a raw
    # warm+sim instruction total: a record whose gap overshoots the warm-up
    # boundary starts measurement late, and breaking at the raw total used to
    # silently under-measure by the overshoot without ever tripping the
    # truncation error below.
    for pc, vaddr, flags, gap in workload.generate():
        step(pc, vaddr, flags, gap)
        if not measuring and engine.instructions >= warm_limit:
            engine.begin_measurement()
            measuring = True
        if measuring and engine.measured_instructions >= sim_limit:
            break
    wall_seconds = perf_counter() - wall_start
    raise_if_truncated(engine, workload.name, measuring, warm_limit, sim_limit)
    return wall_seconds


def simulate(
    workload: Workload, config: SimConfig, *, obs: Optional["Observability"] = None
) -> SimResult:
    """Run one workload under one configuration (warm-up + measured region).

    Pass an :class:`~repro.obs.Observability` bundle to record an epoch
    timeline, journal the run, and/or sample where the kernel spends its
    time; no instrument changes the kernel that runs or its result.  With
    ``config.validate`` set, a :class:`~repro.validate.InvariantChecker` is
    attached: conservation laws are asserted per epoch and at collect time,
    and a violation raises :class:`~repro.validate.InvariantViolation`
    (journaled first when the bundle carries a journal).
    """
    if config.sampling is not None:
        # phase-sampled run: profile, cluster, simulate representatives,
        # reconstruct — the sampling module owns spans/metrics/obs for it
        from repro.experiments.sampling import simulate_sampled

        return simulate_sampled(workload, config, obs=obs)
    return _drive_group(workload, [config], obs)[0]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# policy lockstep (DESIGN.md §17)


def simulate_policies(workload: Workload, configs: Sequence[SimConfig], *,
                      obs: Optional["Observability"] = None,
                      contexts: Optional[Sequence[dict[str, Any]]] = None) -> list[SimResult]:
    """Run one workload under several configs; one result per config, in order.

    Every result equals ``simulate(workload, config)`` bit for bit.  Configs
    that differ only in their page-cross policy share one engine, whose
    policy is a :class:`~repro.core.ensemble.PolicyEnsemble` of theirs: a
    member that agrees with the leader on every decision gets the leader's
    result under its own ``policy`` name, and the members that diverged run
    again as the next group, led by their first member, until every config
    has a result.  Configs share an engine when they are equal after
    clearing ``policy_factory`` and ``prefetcher_extra_storage``, their
    policies agree on ``requires_translation_hit`` and
    ``filter_at_native_boundary``, and their prefetcher storage sizes are
    equal — or, on packed runs of a replayable prefetcher, the pack's
    :class:`~repro.workloads.packed.PrefetchStream` is the same for both.
    A group of one runs through :func:`simulate`, so a sampled config
    stitches its own engines.  ``obs`` instruments every drive and journals
    one record per config, with ``contexts[i]`` merged into config *i*'s
    ``context``.
    """
    results: list[Optional[SimResult]] = [None] * len(configs)
    for group in _lockstep_groups(workload, configs):
        while group:
            if len(group) == 1:
                with _scoped(obs, contexts, group[0]):
                    landed = [simulate(workload, configs[group[0]], obs=obs)]
            else:
                landed = _drive_group(workload, [configs[i] for i in group], obs,
                                      contexts and [contexts[i] for i in group])
            for i, result in zip(group, landed):
                results[i] = result
            diverged = [i for i, result in zip(group, landed) if result is None]
            POLICY_RUNS.inc(outcome="led")
            if len(group) > 1:
                POLICY_RUNS.inc(len(group) - 1 - len(diverged), outcome="shared")
                POLICY_RUNS.inc(len(diverged), outcome="diverged")
            group = diverged
    return results  # type: ignore[return-value]


def _lockstep_groups(workload: Workload, configs: Sequence[SimConfig]) -> list[list[int]]:
    """Partition config positions into groups that may share an engine."""
    groups: list[list[int]] = []
    open_groups: list[tuple[SimConfig, tuple[bool, bool], SimConfig, list[int]]] = []
    for i, config in enumerate(configs):
        if config.sampling is not None:
            groups.append([i])
            continue
        key = replace(config, policy_factory=DiscardPgc, prefetcher_extra_storage=0)
        dispatch = dispatch_of(config.policy_factory())
        for g_key, g_dispatch, head, members in open_groups:
            if (g_key == key and g_dispatch == dispatch
                    and _same_candidates(workload, head, config)):
                members.append(i)
                break
        else:
            members = [i]
            open_groups.append((key, dispatch, config, members))
            groups.append(members)
    return groups


def _same_candidates(workload: Workload, a: SimConfig, b: SimConfig) -> bool:
    """Whether two otherwise-equal configs' prefetchers propose the same candidates."""
    if a.prefetcher_extra_storage == b.prefetcher_extra_storage:
        return True
    if not a.packed or not make_l1d_prefetcher(a.prefetcher).replayable:
        return False
    from repro.workloads.packed import get_packed

    packed = get_packed(workload, a.warmup_instructions, a.sim_instructions)
    return (packed.prefetch_stream(a.prefetcher, a.prefetcher_extra_storage)
            == packed.prefetch_stream(b.prefetcher, b.prefetcher_extra_storage))


def _scoped(obs: Optional["Observability"], contexts: Optional[Sequence[dict[str, Any]]],
            i: int) -> AbstractContextManager:
    """Config *i*'s journal context on ``obs`` (a no-op without either)."""
    if obs is None or not contexts:
        return nullcontext()
    return obs.scoped(**contexts[i])


def _drive_group(workload: Workload, configs: Sequence[SimConfig],
                 obs: Optional["Observability"] = None,
                 contexts: Optional[Sequence[dict[str, Any]]] = None,
                 ) -> list[Optional[SimResult]]:
    """Build one engine for ``configs`` (led by the first), drive and collect it once.

    A lone config keeps its bare policy: an ensemble of one would pay its
    list comprehensions and a ``Decision`` copy for every candidate.  Several
    share a :class:`PolicyEnsemble`.
    Returns one result per config, ``None`` for each member that diverged.
    ``obs`` is finished once per config served, with its own policy and an
    even share of the drive's wall seconds.
    """
    leader = configs[0]
    policies = [config.policy_factory() for config in configs]
    policy = policies[0] if len(policies) == 1 else PolicyEnsemble(policies)
    engine = build_engine(replace(leader, policy_factory=lambda: policy))
    if obs is not None:
        obs.attach(engine, workload)
    checker = None
    if leader.validate:
        from repro.validate import InvariantChecker

        checker = InvariantChecker(obs=obs, workload=workload.name)
        checker.attach(engine)
    # the probe samples the drive itself, not the packing before it
    sampler = (obs.probe if obs is not None else None) or nullcontext()
    if leader.packed:
        from repro.cpu.fastpath import drive_packed
        from repro.workloads.packed import get_packed

        packed = get_packed(workload, leader.warmup_instructions, leader.sim_instructions)
        with trace_span("drive", workload=workload.name, mode="packed"):
            # this fresh engine drives the whole pack with a factory-built
            # prefetcher, so a replayable one's candidates are the pack's
            # recorded stream (built by the first such drive)
            stream = (packed.prefetch_stream(leader.prefetcher, leader.prefetcher_extra_storage)
                      if engine.prefetcher.replayable else None)
            with sampler:
                wall_seconds = drive_packed(engine, packed, leader, stream)
    else:
        with trace_span("drive", workload=workload.name, mode="generator"), sampler:
            wall_seconds = drive(engine, workload, leader)
    with trace_span("collect", workload=workload.name), sampler:
        # once: MemoryHierarchy.finalize is not idempotent
        result = collect_result(engine, workload.name, leader)
    if checker is not None:
        checker.check_final(engine, result)
    live = policy.live if isinstance(policy, PolicyEnsemble) else [0]
    results: list[Optional[SimResult]] = [None] * len(configs)
    for k in live:
        results[k] = result if k == 0 else replace(result, policy=policies[k].name)
        if obs is not None:
            with _scoped(obs, contexts, k):
                obs.finish(engine, workload, configs[k], results[k],
                           wall_seconds / len(live), policy=policies[k])
    return results
