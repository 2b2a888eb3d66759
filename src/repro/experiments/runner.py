"""Experiment runner: sweep (prefetcher x policy x workload) grids.

Policies are specified as named factories so every run gets a fresh,
untrained filter.  QMM workloads run half-length traces, mirroring the
paper's shorter warm-up/simulation for the Qualcomm traces (Section IV-A1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.dripper import make_dripper, make_dripper_sf
from repro.core.policies import DiscardPgc, DiscardPtw, PageCrossPolicy, PermitPgc
from repro.core.ppf import make_ppf, make_ppf_dthr
from repro.cpu.simulator import SimConfig, SimResult, simulate
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import trace_window

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.cache import ResultCache
    from repro.experiments.sampling import SamplingConfig
    from repro.obs import Observability
    from repro.obs.progress import ProgressSink

#: DRIPPER's hardware budget, handed to the prefetcher in the ISO scenario
ISO_STORAGE_BYTES = 1475


def policy_factory(name: str, prefetcher: str) -> Callable[[], PageCrossPolicy]:
    """Named page-cross policy factories (the Figure 9 scenario set)."""
    key = name.lower()
    if key in ("discard", "discard-pgc"):
        return DiscardPgc
    if key in ("permit", "permit-pgc"):
        return PermitPgc
    if key in ("discard-ptw",):
        return DiscardPtw
    if key in ("iso", "iso-storage"):
        # page-cross handling is Permit; the storage goes to the prefetcher
        return PermitPgc
    if key == "dripper":
        return lambda: make_dripper(prefetcher)
    if key == "dripper-sf":
        return lambda: make_dripper_sf(prefetcher)
    if key == "ppf":
        return make_ppf
    if key in ("ppf+dthr", "ppf-dthr"):
        return make_ppf_dthr
    raise KeyError(f"unknown policy {name!r}")


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment grid."""

    prefetcher: str = "berti"
    policy: str = "discard"
    l2_prefetcher: str = "none"
    warmup_instructions: int = 20_000
    sim_instructions: int = 60_000
    large_page_fraction: float = 0.0
    filter_at_native_boundary: bool = False
    #: attach a runtime InvariantChecker to each run (purely observational:
    #: a validated run produces the same SimResult, so the result cache
    #: deliberately ignores this knob — see `cell_fingerprint`)
    validate: bool = False
    #: drive each run through the packed fused kernel (the default; results
    #: are bit-identical to the generator loop, so like `validate` it is
    #: excluded from the cell fingerprint).  ``packed=False`` keeps the
    #: reference generator loop
    packed: bool = True
    #: phase-sampled simulation (:mod:`repro.experiments.sampling`); a
    #: sampled result approximates the full window, so — unlike the
    #: bit-identical knobs above — this DOES enter the cell fingerprint
    sampling: Optional["SamplingConfig"] = None

    def base_config(self) -> SimConfig:
        """Materialise the workload-independent SimConfig for this spec.

        Carries the spec's *nominal* trace windows; per-workload adjustments
        (the QMM half-length windows) are :meth:`config_for`'s job.  Mix
        runs hand this straight to :func:`repro.cpu.multicore.simulate_mix`,
        which applies the QMM halving per core itself.
        """
        factory = policy_factory(self.policy, self.prefetcher)
        if self.filter_at_native_boundary:
            base_factory = factory

            def factory() -> PageCrossPolicy:
                policy = base_factory()
                policy.filter_at_native_boundary = True
                return policy

        return SimConfig(
            prefetcher=self.prefetcher,
            policy_factory=factory,
            l2_prefetcher=self.l2_prefetcher,
            warmup_instructions=self.warmup_instructions,
            sim_instructions=self.sim_instructions,
            large_page_fraction=self.large_page_fraction,
            prefetcher_extra_storage=ISO_STORAGE_BYTES if self.policy.lower().startswith("iso") else 0,
            validate=self.validate,
            packed=self.packed,
            sampling=self.sampling,
        )

    def config_for(self, workload: SyntheticWorkload) -> SimConfig:
        """Materialise a SimConfig (QMM workloads run half-length traces)."""
        config = self.base_config()
        config.warmup_instructions, config.sim_instructions = trace_window(
            workload, config.warmup_instructions, config.sim_instructions)
        return config


def run_one(
    workload: SyntheticWorkload, spec: RunSpec, *, obs: Optional["Observability"] = None
) -> SimResult:
    """Simulate one workload under one spec.

    With an observability bundle, the originating :class:`RunSpec` is
    attached to the journal record's ``context`` so sweep cells stay
    traceable to the grid coordinates that produced them; the key is scoped
    to this run and cannot leak into later runs on the same bundle.
    """
    if obs is not None:
        with obs.scoped(spec=asdict(spec)):
            return simulate(workload, spec.config_for(workload), obs=obs)
    return simulate(workload, spec.config_for(workload), obs=obs)


def run_many(
    workloads: Sequence[SyntheticWorkload],
    spec: RunSpec,
    *,
    progress: Optional[Callable[[str, SimResult], None]] = None,
    obs: Optional["Observability"] = None,
    jobs: int = 1,
    cache: Optional["ResultCache"] = None,
) -> list[SimResult]:
    """Run a spec across workloads (optionally reporting per-run progress).

    The runs are one :func:`~repro.experiments.parallel.run_cells` batch:
    ``jobs`` > 1 fans them out to worker processes and ``cache`` serves
    previously simulated cells from disk; results always come back in
    workload order, identical to a serial run.  ``progress`` fires as each
    result lands (completion order under parallel/cached execution).
    """
    from repro.experiments.parallel import cell_for, run_cells

    on_result = None
    if progress is not None:
        def on_result(index: int, result: SimResult, cached: bool) -> None:
            progress(workloads[index].name, result)

    return run_cells([cell_for(workload, spec) for workload in workloads],
                     jobs=jobs, cache=cache, obs=obs, on_result=on_result)


def run_policies(
    workloads: Sequence[SyntheticWorkload],
    policies: Sequence[str],
    *,
    prefetcher: Optional[str] = None,
    base_spec: Optional[RunSpec] = None,
    obs: Optional["Observability"] = None,
    jobs: int = 1,
    cache: Optional["ResultCache"] = None,
    progress: Optional["ProgressSink"] = None,
) -> dict[str, list[SimResult]]:
    """Run several policies over the same workloads; returns policy -> results.

    ``prefetcher`` overrides the spec's prefetcher only when explicitly
    given — a caller-supplied ``base_spec`` keeps its own prefetcher
    otherwise (it used to be silently clobbered with the default).  The
    whole (policy × workload) grid is dispatched as one batch through
    :func:`~repro.experiments.parallel.run_cells` at every ``jobs`` value,
    so ``jobs`` parallelises across policies as well as workloads;
    workload-affine scheduling keeps each worker replaying one (shared)
    pack across its policies, and each workload's policies share one engine
    until their decisions diverge (DESIGN.md §17).
    """
    spec = base_spec or RunSpec(prefetcher=prefetcher or "berti")
    if prefetcher is not None:
        spec = replace(spec, prefetcher=prefetcher)
    policy_specs = {policy: replace(spec, policy=policy) for policy in policies}
    from repro.experiments.parallel import cell_for, run_cells

    cells = [
        cell_for(workload, policy_spec)
        for policy_spec in policy_specs.values()
        for workload in workloads
    ]
    flat = run_cells(cells, jobs=jobs, cache=cache, obs=obs, progress=progress)
    n = len(workloads)
    return {
        policy: flat[i * n:(i + 1) * n]
        for i, policy in enumerate(policy_specs)
    }
