"""Differential and metamorphic validation of the simulator.

Each check runs the *production* code paths twice under a transformation
that must not change the answer, then diffs the :class:`SimResult`\\ s
field by field:

* **determinism** — the same (workload, config) simulated twice is
  bit-identical (trace generation, large-page allocation and replacement
  are all seeded);
* **parallel-vs-serial** — a randomized batch of grid cells executed with
  ``jobs=N`` equals the same batch executed serially (``jobs=1``);
* **shm-grid-vs-serial** — the same grid run through the zero-copy
  shared-memory pack store (workers attach the parent's published packs)
  equals serial execution, and no ``/dev/shm`` segment survives the run;
* **discard-source equivalence** — running ``DiscardPgc`` equals running a
  prefetcher wrapper that suppresses page-cross candidates at the source
  (the policy layer must be side-effect-free when it discards); only the
  candidate bookkeeping (``pgc_candidates``/``pgc_discarded``) may differ;
* **epoch invariance** — for epoch-independent policies (discard, permit),
  changing ``epoch_instructions`` must not change any counter: epoch ends
  are bookkeeping, not events;
* **packed-vs-generator** — driving through the fused record kernel
  (``SimConfig(packed=True)``) is bit-identical to the generator drive
  loop for every fuzz prefetcher under discard and DRIPPER, and for the
  inert prefetcher (``none``) under discard;
* **prefetch-replay-vs-live** — a packed drive that replays the pack's
  recorded prefetch-candidate stream equals a packed drive that calls a
  caller-supplied (hence live) prefetcher, for Berti, IPCP and BOP under
  every Fig. 9 filter family; sampled and mix drives never replay;
* **policy-ensemble-vs-solo** — :func:`simulate_policies`, which drives
  configs that differ only in their page-cross policy on one engine until
  their decisions diverge, equals one solo :func:`simulate` per policy for
  the Fig. 9 scheme set plus native-boundary filters, packed and on the
  generator loop, and both its shared and its diverged arms ran;
* **mix-packed-vs-generator** — the packed multi-core mix loop
  (:func:`repro.cpu.multicore.simulate_mix` with ``packed=True``) equals
  the generator mix loop per core, on a mix whose QMM core (halved
  budgets) finishes early and replays through the overflow seam;
* **invariants-clean** — every (workload × policy) run passes a full
  :class:`~repro.validate.InvariantChecker` pass with zero violations;
* **mutation detection** — re-introducing the fixed stale-MSHR bug via
  :func:`~repro.validate.reintroduce_stale_mshr_bug` makes a validated run
  raise, proving the checker actually has teeth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Optional, Sequence

from repro.core.filter import FilterConfig, PerceptronFilter
from repro.core.policies import PageCrossPolicy, PermitPgc
from repro.core.specialized import SPECIALIZED_FEATURES
from repro.cpu.simulator import (
    DRIVES,
    POLICY_RUNS,
    PREFETCH_STREAMS,
    SimConfig,
    SimResult,
    build_engine,
    collect_result,
    drive,
    simulate,
    simulate_policies,
)
from repro.experiments.figures import FIG9_POLICIES
from repro.experiments.parallel import cell_for, run_cells
from repro.experiments.runner import RunSpec
from repro.params import DEFAULT_PARAMS
from repro.prefetch import make_l1d_prefetcher
from repro.prefetch.base import L1dPrefetcher
from repro.validate.invariants import InvariantChecker, InvariantViolation
from repro.validate.mutation import reintroduce_stale_mshr_bug
from repro.vm.address import PAGE_4K_SHIFT, canonical
from repro.workloads.registry import by_name

#: prefetchers the parallel fuzz draws from (cheap, deterministic trainers)
_FUZZ_PREFETCHERS = ("berti", "ipcp", "bop")
#: epoch lengths the fuzz and the invariance check draw from
_FUZZ_EPOCHS = (1024, 2048, 4096)
#: page-cross policies the replay check covers (one per Fig. 9 filter family)
_REPLAY_POLICIES = ("discard", "permit", "iso", "ppf", "dripper")


def _degree_filter() -> PageCrossPolicy:
    """A filter whose decisions read the request's delta and rank (``meta``)."""
    return PerceptronFilter(FilterConfig(
        program_features=("Delta", SPECIALIZED_FEATURES["DegreeIndex"])))


@dataclass
class CheckOutcome:
    """One differential check's verdict."""

    name: str
    passed: bool
    detail: str = ""


def result_diff(a: SimResult, b: SimResult, *, ignore: Sequence[str] = ()) -> dict[str, tuple[Any, Any]]:
    """Field-by-field differences between two results (empty == identical)."""
    diffs: dict[str, tuple[Any, Any]] = {}
    for f in fields(SimResult):
        if f.name in ignore:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            diffs[f.name] = (va, vb)
    return diffs


def _summarise(diffs: dict[str, tuple[Any, Any]], limit: int = 4) -> str:
    parts = [f"{k}: {va!r} != {vb!r}" for k, (va, vb) in list(diffs.items())[:limit]]
    if len(diffs) > limit:
        parts.append(f"... {len(diffs) - limit} more")
    return "; ".join(parts)


class _SuppressCrossPage(L1dPrefetcher):
    """Wrap a prefetcher, dropping page-cross candidates at the source.

    Mirrors the engine's candidate test in ``_handle_prefetches`` exactly:
    a request is page-cross iff its canonicalised target lands outside the
    trigger's 4KB frame.  Running this under any policy must equal running
    the bare prefetcher under ``DiscardPgc`` — modulo the candidate
    bookkeeping that only the policy path performs.
    """

    def __init__(self, inner: L1dPrefetcher):
        self.inner = inner
        self.name = inner.name

    @property
    def extra_storage_bytes(self) -> int:
        return self.inner.extra_storage_bytes

    def on_access(self, pc: int, vaddr: int, hit: bool, t: float) -> list:
        trigger_page = vaddr >> PAGE_4K_SHIFT
        return [
            req for req in self.inner.on_access(pc, vaddr, hit, t)
            if (canonical(req.vaddr) >> PAGE_4K_SHIFT) == trigger_page
        ]

    def on_fill(self, vaddr: int, latency: float) -> None:
        self.inner.on_fill(vaddr, latency)


def _spec(prefetcher: str, policy: str, warmup: int, sim: int, **overrides: Any) -> RunSpec:
    """A check's RunSpec; it runs the reference generator loop unless told
    ``packed=True`` (checks compare the fast paths *against* that loop)."""
    overrides.setdefault("packed", False)
    return RunSpec(
        prefetcher=prefetcher,
        policy=policy,
        warmup_instructions=warmup,
        sim_instructions=sim,
        **overrides,
    )


# ---------------------------------------------------------------------------
# individual checks


def check_determinism(workload_name: str, *, prefetcher: str, policy: str,
                      warmup: int, sim: int) -> CheckOutcome:
    """Same seed, same config => bit-identical result."""
    workload = by_name(workload_name)
    spec = _spec(prefetcher, policy, warmup, sim)
    first = simulate(workload, spec.config_for(workload))
    second = simulate(workload, spec.config_for(workload))
    diffs = result_diff(first, second)
    name = f"determinism[{workload_name}/{policy}]"
    if diffs:
        return CheckOutcome(name, False, _summarise(diffs))
    return CheckOutcome(name, True, f"{first.instructions} instructions, ipc {first.ipc:.3f}")


def check_parallel_matches_serial(workload_names: Sequence[str], *,
                                  policies: Sequence[str], warmup: int, sim: int,
                                  seed: int, fuzz_cells: int, jobs: int) -> CheckOutcome:
    """A randomized cell batch run with jobs=N equals the serial run."""
    rng = random.Random(seed)
    cells = []
    for _ in range(fuzz_cells):
        workload = by_name(rng.choice(list(workload_names)))
        spec = _spec(
            rng.choice(_FUZZ_PREFETCHERS),
            rng.choice(list(policies)),
            warmup,
            sim,
            large_page_fraction=rng.choice((0.0, 0.25)),
        )
        cells.append(cell_for(workload, spec,
                              epoch_instructions=rng.choice(_FUZZ_EPOCHS)))
    serial = run_cells(cells, jobs=1)
    parallel = run_cells(cells, jobs=max(2, jobs))
    name = f"parallel-vs-serial[{fuzz_cells} cells]"
    for i, (a, b) in enumerate(zip(serial, parallel)):
        diffs = result_diff(a, b)
        if diffs:
            cell = cells[i]
            return CheckOutcome(
                name, False,
                f"cell {i} ({cell.workload}/{cell.spec.policy}/{cell.spec.prefetcher}): "
                + _summarise(diffs),
            )
    return CheckOutcome(name, True, f"{len(cells)} randomized cells identical")


def check_discard_source_equivalence(workload_name: str, *, prefetcher: str,
                                     warmup: int, sim: int) -> CheckOutcome:
    """DiscardPgc == suppressing page-cross candidates inside the prefetcher."""
    workload = by_name(workload_name)
    spec = _spec(prefetcher, "discard", warmup, sim)
    config = spec.config_for(workload)
    baseline = simulate(workload, config)

    suppressed = _SuppressCrossPage(make_l1d_prefetcher(prefetcher))
    engine = build_engine(config, prefetcher=suppressed)
    drive(engine, workload, config)
    source = collect_result(engine, workload.name, config)

    # only the policy path sees candidates; suppressing at the source zeroes
    # the candidate/discard bookkeeping but must change nothing else
    diffs = result_diff(baseline, source, ignore=("pgc_candidates", "pgc_discarded"))
    name = f"discard-source-equivalence[{workload_name}/{prefetcher}]"
    if diffs:
        return CheckOutcome(name, False, _summarise(diffs))
    if source.pgc_candidates != 0 or source.pgc_issued != 0:
        return CheckOutcome(
            name, False,
            f"suppressed run still saw candidates "
            f"(candidates={source.pgc_candidates}, issued={source.pgc_issued})",
        )
    return CheckOutcome(
        name, True,
        f"{baseline.pgc_candidates} candidates suppressed without side effects",
    )


def check_epoch_invariance(workload_name: str, *, prefetcher: str,
                           warmup: int, sim: int) -> CheckOutcome:
    """Epoch length must not alter counters for epoch-independent policies."""
    workload = by_name(workload_name)
    for policy in ("discard", "permit"):
        spec = _spec(prefetcher, policy, warmup, sim)
        results = []
        for epoch in _FUZZ_EPOCHS:
            config = replace(spec.config_for(workload), epoch_instructions=epoch)
            results.append(simulate(workload, config))
        for other, epoch in zip(results[1:], _FUZZ_EPOCHS[1:]):
            diffs = result_diff(results[0], other)
            if diffs:
                return CheckOutcome(
                    f"epoch-invariance[{workload_name}/{policy}]", False,
                    f"epoch {_FUZZ_EPOCHS[0]} vs {epoch}: " + _summarise(diffs),
                )
    return CheckOutcome(
        f"epoch-invariance[{workload_name}]", True,
        f"epochs {_FUZZ_EPOCHS} identical for discard and permit",
    )


def check_packed_matches_generator(workload_name: str, *, warmup: int,
                                   sim: int) -> list[CheckOutcome]:
    """The fused record kernel equals the generator drive loop bit-for-bit.

    Covers every fuzz prefetcher under both a static policy (discard) and
    the epoch-adaptive one (dripper) — the two exercise disjoint sets of
    fused branches.  DRIPPER additionally runs with a deliberately short
    epoch so the kernel's *inline* epoch rollover fires many times per
    measurement window.  The inert prefetcher (``none``) runs under
    discard at both epoch lengths: no other validate cell drives
    ``NoPrefetcher`` through the kernel.
    """
    workload = by_name(workload_name)
    cells = [(prefetcher, policy, epoch)
             for prefetcher in _FUZZ_PREFETCHERS
             for policy, epoch in (("discard", None), ("dripper", None), ("dripper", 512))]
    cells += [("none", "discard", None), ("none", "discard", 512)]
    outcomes = []
    for prefetcher, policy, epoch in cells:
        spec = _spec(prefetcher, policy, warmup, sim)
        config = spec.config_for(workload)
        if epoch is not None:
            config = replace(config, epoch_instructions=epoch)
        generator = simulate(workload, config)
        packed = simulate(workload, replace(config, packed=True))
        diffs = result_diff(generator, packed)
        tag = f"{policy}@{epoch}" if epoch is not None else policy
        name = f"packed-vs-generator[{workload_name}/{prefetcher}/{tag}]"
        if diffs:
            outcomes.append(CheckOutcome(name, False, _summarise(diffs)))
        else:
            outcomes.append(CheckOutcome(
                name, True, f"identical at ipc {generator.ipc:.3f}"
            ))
    return outcomes


def _streams_by_source() -> dict[str, float]:
    return {source: PREFETCH_STREAMS.value(source=source)
            for source in ("replayed", "live")}


def _stream_delta(before: dict[str, float]) -> dict[str, float]:
    return {source: value - before[source]
            for source, value in _streams_by_source().items()}


def check_prefetch_replay_matches_live(workload_names: Sequence[str], *, warmup: int,
                                       sim: int) -> list[CheckOutcome]:
    """Replaying a pack's prefetch-candidate stream equals calling the prefetcher.

    For every replayable prefetcher (Berti, IPCP, BOP) under each Fig. 9
    filter family — plus a filter on the Delta and DegreeIndex features,
    so a replayed delta or rank that differs changes decisions — the *live*
    reference drives the pack through the fused kernel with a
    caller-supplied prefetcher (never replayed); two
    :func:`simulate` calls of the same config then replay — the first may
    build the stream, the second reuses it — and both must equal the live
    run bit-for-bit.  ``sim.prefetch_streams`` must show exactly those two
    replays.  A phase-sampled run and a packed mix must count only
    ``source="live"``: their engines resume mid-pack, so a recorded stream
    would not line up with them.
    """
    from repro.cpu.fastpath import drive_packed
    from repro.cpu.multicore import simulate_mix
    from repro.experiments.sampling import SamplingConfig
    from repro.workloads.packed import get_packed

    outcomes = []
    for workload_name in workload_names:
        workload = by_name(workload_name)
        for prefetcher in _FUZZ_PREFETCHERS:
            for policy in (*_REPLAY_POLICIES, "delta+degree"):
                if policy == "delta+degree":
                    config = replace(_spec(prefetcher, "permit", warmup, sim, packed=True)
                                     .config_for(workload), policy_factory=_degree_filter)
                else:
                    config = _spec(prefetcher, policy, warmup, sim,
                                   packed=True).config_for(workload)
                name = f"prefetch-replay-vs-live[{workload_name}/{prefetcher}/{policy}]"
                before = _streams_by_source()
                engine = build_engine(config, prefetcher=make_l1d_prefetcher(
                    prefetcher, extra_storage_bytes=config.prefetcher_extra_storage))
                drive_packed(engine, get_packed(workload, config.warmup_instructions,
                                                config.sim_instructions), config)
                live = collect_result(engine, workload.name, config)
                first = simulate(workload, config)
                second = simulate(workload, config)
                counted = _stream_delta(before)
                diffs = result_diff(live, second) or result_diff(live, first)
                if diffs:
                    outcomes.append(CheckOutcome(name, False, _summarise(diffs)))
                elif counted != {"replayed": 2, "live": 1}:
                    outcomes.append(CheckOutcome(
                        name, False, f"expected 2 replayed + 1 live drives, counted {counted}"))
                else:
                    outcomes.append(CheckOutcome(
                        name, True, f"identical at ipc {live.ipc:.3f} "
                                    f"({live.pgc_candidates} page-cross candidates)"))
    anchor = by_name(workload_names[0])
    config = _spec("berti", "dripper", warmup, sim, packed=True).config_for(anchor)
    for kind, run in (
        ("sampled", lambda: simulate(anchor, replace(
            config, sampling=SamplingConfig(intervals=4, phases=2, resamples=50)))),
        ("mix", lambda: simulate_mix([anchor, by_name("hmmer")], config)),
    ):
        before = _streams_by_source()
        run()
        counted = _stream_delta(before)
        ok = counted["replayed"] == 0 and counted["live"] >= 1
        outcomes.append(CheckOutcome(
            f"prefetch-stream-live-only[{kind}]", ok, f"counted {counted}"))
    return outcomes


def check_policy_ensemble_matches_solo(workload_names: Sequence[str], *, prefetcher: str,
                                       warmup: int, sim: int) -> list[CheckOutcome]:
    """Policy lockstep equals one solo :func:`simulate` per policy.

    Runs the Fig. 9 scheme set plus DRIPPER and Permit filtering at the
    native page boundary on each workload, with half the memory on 2MB
    pages so the native-boundary arm (a training hook that follows no
    ``decide``) runs in lockstep too.  Each workload runs packed and on the
    generator loop, once through :func:`simulate_policies` and once through
    a per-policy :func:`simulate`, and every pair of results must be
    bit-identical.  A last outcome requires that over the whole check at
    least one member shared a drive and at least one diverged and ran
    again, so the check cannot pass without exercising both arms.
    """
    policies = [(policy, False) for policy in ("discard", *FIG9_POLICIES)]
    policies += [("dripper", True), ("permit", True)]
    outcomes = []
    before = {o: POLICY_RUNS.value(outcome=o) for o in ("shared", "diverged")}
    for workload_name in workload_names:
        workload = by_name(workload_name)
        for packed in (True, False):
            configs = [
                _spec(prefetcher, policy, warmup, sim, packed=packed,
                      large_page_fraction=0.5,
                      filter_at_native_boundary=native).config_for(workload)
                for policy, native in policies
            ]
            drives = DRIVES.total()
            lockstep = simulate_policies(workload, configs)
            drives = DRIVES.total() - drives
            mode = "packed" if packed else "generator"
            name = f"policy-ensemble-vs-solo[{workload_name}/{mode}]"
            for (policy, native), config, shared in zip(policies, configs, lockstep):
                diffs = result_diff(simulate(workload, config), shared)
                if diffs:
                    label = f"{policy}@native" if native else policy
                    outcomes.append(CheckOutcome(name, False, f"{label}: {_summarise(diffs)}"))
                    break
            else:
                outcomes.append(CheckOutcome(
                    name, True, f"{len(configs)} policies identical in {drives} drives"))
    counted = {o: POLICY_RUNS.value(outcome=o) - v for o, v in before.items()}
    outcomes.append(CheckOutcome(
        "policy-ensemble-exercised", counted["shared"] >= 1 and counted["diverged"] >= 1,
        f"{counted['shared']:g} shared, {counted['diverged']:g} diverged"))
    return outcomes


def check_sampled_matches_full(
    workload_name: str, *, prefetcher: str = "berti", policy: str = "dripper",
    warmup: int, sim: int, sampling: Optional[Any] = None,
) -> list[CheckOutcome]:
    """Phase-sampled reconstruction stays within its claimed error bound.

    Sampling is an *approximation* (functional warm-up cannot rebuild state
    older than its prefix), so unlike every bit-identity check above this
    one asserts a bound: the reconstructed IPC must sit within
    ``sampling.max_rel_error`` of a full run of the same window.  It also
    asserts the approximation is *reproducible* — two sampled runs with the
    same seed must be bit-identical (clustering init and the bootstrap are
    both seeded).
    """
    from repro.experiments.sampling import SamplingConfig

    if sampling is None:
        # Sampling is undefined at the suite's micro windows (a 1.5k-instr
        # window split 16 ways leaves ~100 instructions per interval, all
        # boundary noise), so the default check floors the window to the
        # smallest scale where phases are real and keeps half the intervals
        # as phases — enough for the seeded clustering to isolate outlier
        # intervals (astar has two ~30x-slower ones in this window).
        # Explicit ``sampling=`` keeps the caller's window untouched.
        warmup = max(warmup, 4_000)
        sim = max(sim, 48_000)
        sampling = SamplingConfig(intervals=16, phases=8, warmup_fraction=1.0,
                                  max_rel_error=0.05)
    workload = by_name(workload_name)
    spec = _spec(prefetcher, policy, warmup, sim)
    config = spec.config_for(workload)
    full = simulate(workload, config)
    sampled = simulate(workload, replace(config, sampling=sampling))
    again = simulate(workload, replace(config, sampling=sampling))
    outcomes = []
    diffs = result_diff(sampled, again)
    det_name = f"sampled-deterministic[{workload_name}/{prefetcher}/{policy}]"
    if diffs:
        outcomes.append(CheckOutcome(det_name, False, _summarise(diffs)))
    else:
        outcomes.append(CheckOutcome(
            det_name, True,
            f"bit-identical across reruns at seed {sampling.seed}"))
    rel_error = abs(sampled.ipc - full.ipc) / full.ipc if full.ipc else 0.0
    err_name = f"sampled-error-bound[{workload_name}/{prefetcher}/{policy}]"
    detail = (
        f"full ipc {full.ipc:.4f}, sampled {sampled.ipc:.4f} "
        f"[{sampled.ipc_ci_lo:.4f}, {sampled.ipc_ci_hi:.4f}] "
        f"({sampled.sampled_phases} phases/{sampled.sampled_intervals} "
        f"intervals), rel error {100 * rel_error:.2f}% "
        f"(bound {100 * sampling.max_rel_error:.1f}%)")
    outcomes.append(CheckOutcome(err_name, rel_error <= sampling.max_rel_error,
                                 detail))
    return outcomes


def check_mix_packed_matches_generator(*, warmup: int, sim: int,
                                       cores: int = 4) -> list[CheckOutcome]:
    """The packed mix drive loop equals the generator mix loop per core.

    The mix deliberately includes a QMM workload: its per-core budgets are
    halved by ``simulate_mix``, so that core finishes early and *replays*
    while the full-budget cores catch up — driving the packed loop past its
    packed prefix and into the overflow-continuation path (a fresh
    generator advanced past the pack).  Checked under a static policy
    (discard) and the epoch-adaptive DRIPPER, which exercise disjoint sets
    of per-core state.
    """
    from repro.cpu.multicore import simulate_mix
    from repro.workloads.registry import seen_workloads
    from repro.workloads.trace import trace_window

    qmm = next(w for w in seen_workloads()
               if trace_window(w, warmup, sim) != (warmup, sim))
    names = ["astar", "hmmer", "mcf", "lbm"]
    mix = [by_name(name) for name in names[:cores - 1]] + [qmm]
    tag = "+".join(w.name for w in mix)
    outcomes = []
    for policy in ("discard", "dripper"):
        config = _spec("berti", policy, warmup, sim).base_config()
        generator = simulate_mix(mix, config)
        packed = simulate_mix(mix, replace(config, packed=True))
        name = f"mix-packed-vs-generator[{tag}/{policy}]"
        failed = False
        for core, (a, b) in enumerate(zip(generator.results, packed.results)):
            diffs = result_diff(a, b)
            if diffs:
                outcomes.append(CheckOutcome(
                    name, False,
                    f"core {core} ({a.workload}): " + _summarise(diffs)))
                failed = True
                break
        if not failed:
            outcomes.append(CheckOutcome(
                name, True,
                f"{len(mix)} cores identical, weighted "
                f"ipcs {[round(r.ipc, 3) for r in generator.results]}"))
    return outcomes


def check_shm_grid_matches_serial(workload_names: Sequence[str], *,
                                  policies: Sequence[str], prefetcher: str,
                                  warmup: int, sim: int, jobs: int) -> CheckOutcome:
    """The shared-memory grid path equals serial execution, and cleans up.

    Runs the (workload × policy) grid once serially and once on a worker
    pool, whose session always carries the zero-copy pack store: workers
    attach the parent's published segments instead of re-packing, and must
    produce field-identical results.  Afterwards no ``repro-pack-*`` segment may
    remain in ``/dev/shm`` — a leak means a store outlived its session.
    """
    from repro.experiments.parallel import grid_session
    from repro.workloads.shm import live_segments

    cells = [
        cell_for(by_name(name), _spec(prefetcher, policy, warmup, sim))
        for name in workload_names
        for policy in policies
    ]
    serial = run_cells(cells, jobs=1)
    with grid_session(max(2, jobs)):
        shared = run_cells(cells, jobs=max(2, jobs))
    name = f"shm-grid-vs-serial[{len(cells)} cells]"
    for i, (a, b) in enumerate(zip(serial, shared)):
        diffs = result_diff(a, b)
        if diffs:
            cell = cells[i]
            return CheckOutcome(
                name, False,
                f"cell {i} ({cell.workload}/{cell.spec.policy}): " + _summarise(diffs),
            )
    leaked = live_segments()
    if leaked:
        return CheckOutcome(name, False, f"leaked shm segments: {', '.join(leaked)}")
    return CheckOutcome(name, True, f"{len(cells)} cells identical, no segments leaked")


def check_invariants_clean(workload_names: Sequence[str], *, policies: Sequence[str],
                           prefetcher: str, warmup: int, sim: int) -> list[CheckOutcome]:
    """Every (workload x policy) run passes a full invariant pass."""
    outcomes = []
    for workload_name in workload_names:
        workload = by_name(workload_name)
        for policy in policies:
            spec = _spec(prefetcher, policy, warmup, sim)
            config = replace(spec.config_for(workload), validate=True)
            name = f"invariants[{workload_name}/{policy}]"
            try:
                result = simulate(workload, config)
            except InvariantViolation as violation:
                outcomes.append(CheckOutcome(name, False, str(violation)))
            else:
                outcomes.append(CheckOutcome(
                    name, True, f"clean at ipc {result.ipc:.3f}"
                ))
    return outcomes


def check_mutation_detected(workload_name: str, *, prefetcher: str,
                            warmup: int, sim: int) -> CheckOutcome:
    """The checker must catch the re-introduced stale-MSHR bug."""
    workload = by_name(workload_name)
    params = replace(DEFAULT_PARAMS, l1d=replace(DEFAULT_PARAMS.l1d, mshr_entries=2))
    config = SimConfig(
        prefetcher=prefetcher,
        policy_factory=PermitPgc,
        warmup_instructions=warmup,
        sim_instructions=sim,
        params=params,
        validate=True,
    )
    name = f"mutation-detected[{workload_name}]"
    try:
        simulate(workload, config)
    except InvariantViolation as violation:
        return CheckOutcome(
            name, False,
            f"clean simulator tripped the checker before mutation: {violation}",
        )
    with reintroduce_stale_mshr_bug():
        try:
            simulate(workload, config)
        except InvariantViolation as violation:
            if violation.invariant != "mshr-accounting":
                return CheckOutcome(
                    name, False,
                    f"mutation tripped the wrong invariant: {violation.invariant}",
                )
            return CheckOutcome(name, True, "stale-MSHR mutation caught: " + violation.message)
    return CheckOutcome(name, False, "stale-MSHR mutation went undetected")


# ---------------------------------------------------------------------------
# suite driver


def run_validation_suite(
    workload_names: Sequence[str],
    *,
    policies: Sequence[str] = ("discard", "permit", "dripper"),
    prefetcher: str = "berti",
    warmup: int = 2_000,
    sim: int = 6_000,
    seed: int = 0,
    fuzz_cells: int = 4,
    jobs: int = 2,
    progress: Optional[Callable[[CheckOutcome], None]] = None,
) -> list[CheckOutcome]:
    """Run the full differential suite; returns one outcome per check."""
    if not workload_names:
        raise ValueError("run_validation_suite needs at least one workload")
    anchor = workload_names[0]
    outcomes: list[CheckOutcome] = []

    def record(outcome: CheckOutcome) -> None:
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)

    record(check_determinism(anchor, prefetcher=prefetcher, policy=policies[0],
                             warmup=warmup, sim=sim))
    record(check_parallel_matches_serial(
        workload_names, policies=policies, warmup=warmup, sim=sim,
        seed=seed, fuzz_cells=fuzz_cells, jobs=jobs))
    record(check_shm_grid_matches_serial(
        workload_names, policies=policies, prefetcher=prefetcher,
        warmup=warmup, sim=sim, jobs=jobs))
    record(check_discard_source_equivalence(anchor, prefetcher=prefetcher,
                                            warmup=warmup, sim=sim))
    record(check_epoch_invariance(anchor, prefetcher=prefetcher,
                                  warmup=warmup, sim=sim))
    for outcome in check_packed_matches_generator(anchor, warmup=warmup, sim=sim):
        record(outcome)
    for outcome in check_prefetch_replay_matches_live(workload_names, warmup=warmup,
                                                      sim=sim):
        record(outcome)
    for outcome in check_policy_ensemble_matches_solo(workload_names, prefetcher=prefetcher,
                                                      warmup=warmup, sim=sim):
        record(outcome)
    for outcome in check_sampled_matches_full(anchor, prefetcher=prefetcher,
                                              policy=policies[-1],
                                              warmup=warmup, sim=sim):
        record(outcome)
    for outcome in check_mix_packed_matches_generator(warmup=warmup, sim=sim):
        record(outcome)
    for outcome in check_invariants_clean(workload_names, policies=policies,
                                          prefetcher=prefetcher, warmup=warmup, sim=sim):
        record(outcome)
    record(check_mutation_detected(anchor, prefetcher=prefetcher,
                                   warmup=warmup, sim=sim))
    return outcomes
