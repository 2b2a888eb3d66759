"""repro: reproduction of "To Cross, or Not to Cross Pages for Prefetching?"
(HPCA 2025) — the MOKA page-cross-filter framework, the DRIPPER prototype,
and the trace-driven CPU / memory / virtual-memory simulator they are
evaluated on.

Quickstart::

    from repro import SimConfig, simulate, make_dripper, by_name

    workload = by_name("astar")
    config = SimConfig(prefetcher="berti", policy_factory=lambda: make_dripper("berti"))
    result = simulate(workload, config)
    print(result.ipc, result.pgc_accuracy)
"""

from repro.core import (
    DiscardPgc,
    DiscardPtw,
    FeatureContext,
    PageCrossPolicy,
    PerceptronFilter,
    PermitPgc,
    PrefetchRequest,
    make_dripper,
    make_dripper_sf,
    make_ppf,
    make_ppf_dthr,
)
from repro.cpu import MixResult, SimConfig, SimResult, simulate, simulate_mix, simulate_policies
from repro.obs import Observability, Probe, RunJournal, TimelineRecorder
from repro.params import DEFAULT_PARAMS, SystemParams
from repro.workloads import by_name, seen_workloads, unseen_workloads

__version__ = "1.0.0"

__all__ = [
    "DiscardPgc",
    "DiscardPtw",
    "FeatureContext",
    "PageCrossPolicy",
    "PerceptronFilter",
    "PermitPgc",
    "PrefetchRequest",
    "make_dripper",
    "make_dripper_sf",
    "make_ppf",
    "make_ppf_dthr",
    "MixResult",
    "SimConfig",
    "SimResult",
    "simulate",
    "simulate_mix",
    "simulate_policies",
    "Observability",
    "Probe",
    "RunJournal",
    "TimelineRecorder",
    "DEFAULT_PARAMS",
    "SystemParams",
    "by_name",
    "seen_workloads",
    "unseen_workloads",
    "__version__",
]
