"""Parameter-sweep helpers for sensitivity studies.

A sweep varies one hardware parameter (sTLB size, DRAM latency, epoch
length, ...) and reports DRIPPER's and the static policies' geomean speedups
at each point — the sensitivity analyses backing the ablation benches.

Both sweeps lower their loop nests to :class:`~repro.experiments.parallel.Cell`
batches, so ``jobs=`` runs the grid on a process pool and ``cache=`` (a
:class:`~repro.experiments.cache.ResultCache`) deduplicates identical cells:
sweep points that share the ``discard`` baseline simulate it once, and
re-running an unchanged sweep is free.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.cpu.simulator import SimResult
from repro.experiments.metrics import geomean_speedup, speedup_percent
from repro.experiments.parallel import Cell, cell_for, run_cells
from repro.experiments.runner import RunSpec
from repro.params import DEFAULT_PARAMS, SystemParams, TlbParams
from repro.workloads.synthetic import SyntheticWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.cache import ResultCache
    from repro.obs import Observability
    from repro.obs.progress import ProgressSink

#: maps a sweep value onto SystemParams
ParamsTransform = Callable[[SystemParams, int], SystemParams]


def _check_tlb_size(name: str, entries: int, ways: int) -> None:
    if entries < 1 or entries % ways != 0:
        raise ValueError(
            f"invalid {name} sweep size {entries}: entries must be a positive "
            f"multiple of its {ways} ways"
        )


def stlb_size_transform(params: SystemParams, entries: int) -> SystemParams:
    """Resize the sTLB (entries must be divisible by its 12 ways)."""
    _check_tlb_size("sTLB", entries, params.stlb.ways)
    return replace(params, stlb=TlbParams("sTLB", entries, params.stlb.ways, params.stlb.latency))


def dtlb_size_transform(params: SystemParams, entries: int) -> SystemParams:
    """Resize the dTLB (entries must be divisible by its ways)."""
    _check_tlb_size("dTLB", entries, params.dtlb.ways)
    return replace(params, dtlb=TlbParams("dTLB", entries, params.dtlb.ways, params.dtlb.latency))


def dram_latency_transform(params: SystemParams, latency: int) -> SystemParams:
    """Set the DRAM access latency."""
    return replace(params, dram=replace(params.dram, access_latency=latency))


def sweep_parameter(
    workloads: Sequence[SyntheticWorkload],
    transform: ParamsTransform,
    values: Sequence[int],
    *,
    policies: Sequence[str] = ("permit", "dripper"),
    prefetcher: str = "berti",
    base_spec: RunSpec | None = None,
    obs: Optional["Observability"] = None,
    jobs: int = 1,
    cache: Optional["ResultCache"] = None,
    progress: Optional["ProgressSink"] = None,
) -> dict[int, dict[str, float]]:
    """Sweep one parameter; returns {value: {policy: geomean % over discard}}.

    With an observability bundle every cell's run is journaled, tagged with
    its sweep coordinates (``context.sweep``) scoped to that cell.  The whole
    sweep is one :func:`~repro.experiments.parallel.run_cells` batch: the
    worker pool forks once and every sweep point replays the same shared
    packs.
    """
    spec = base_spec or RunSpec(prefetcher=prefetcher)
    grid = [(value, policy) for value in values for policy in ("discard", *policies)]
    cells: list[Cell] = []
    for value, policy in grid:
        point = replace(spec, policy=policy,
                        params=transform(spec.params or DEFAULT_PARAMS, value))
        cells.extend(
            cell_for(workload, point, context={"sweep": {"value": value, "policy": policy}})
            for workload in workloads
        )
    flat = run_cells(cells, jobs=jobs, cache=cache, obs=obs, progress=progress)
    n = len(workloads)
    results: dict[tuple[int, str], list[SimResult]] = {
        pair: flat[i * n:(i + 1) * n] for i, pair in enumerate(grid)
    }
    return {
        value: {
            policy: speedup_percent(
                geomean_speedup(results[(value, policy)], results[(value, "discard")])
            )
            for policy in policies
        }
        for value in values
    }


def sweep_epoch_length(
    workloads: Sequence[SyntheticWorkload],
    epoch_lengths: Sequence[int],
    *,
    prefetcher: str = "berti",
    base_spec: RunSpec | None = None,
    obs: Optional["Observability"] = None,
    jobs: int = 1,
    cache: Optional["ResultCache"] = None,
    progress: Optional["ProgressSink"] = None,
) -> dict[int, float]:
    """Sensitivity of DRIPPER to the adaptive scheme's epoch length.

    The ``discard`` baseline is epoch-independent and appears once in the
    cell batch (and, with a cache, at most once ever).
    """
    spec = base_spec or RunSpec(prefetcher=prefetcher)
    baseline = replace(spec, policy="discard")
    cells = [
        cell_for(workload, baseline,
                 context={"sweep": {"epoch_instructions": None, "policy": "discard"}})
        for workload in workloads
    ]
    for epoch in epoch_lengths:
        point = replace(spec, policy="dripper", epoch_instructions=epoch)
        cells.extend(
            cell_for(workload, point,
                     context={"sweep": {"epoch_instructions": epoch, "policy": "dripper"}})
            for workload in workloads
        )
    flat = run_cells(cells, jobs=jobs, cache=cache, obs=obs, progress=progress)
    n = len(workloads)
    base_runs = flat[:n]
    return {
        epoch: speedup_percent(geomean_speedup(flat[(1 + i) * n:(2 + i) * n], base_runs))
        for i, epoch in enumerate(epoch_lengths)
    }
