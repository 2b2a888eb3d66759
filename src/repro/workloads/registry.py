"""Workload registry: the 396-workload set, splits, and 8-core mixes.

Mirrors Section IV-A:

* 218 *seen* workloads (used when designing DRIPPER / running feature
  selection);
* 178 *unseen* workloads (held out; Section V-B8);
* a set of non-memory-intensive workloads (Section V-B9);
* 300 random 8-core mixes drawn from the seen set (Section IV-A2).

Benches run stratified samples of these sets (Python simulation speed);
:func:`stratified_sample` makes the sampling deterministic and
suite-balanced.  ``EXPERIMENTS.md`` records what each bench actually ran.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.workloads.suites import (
    GAP_ALGORITHMS,
    GRAPH_FLAVOURS,
    LIGRA_ALGORITHMS,
    LIGRA_FLAVOURS,
    PARSEC_BENCHMARKS,
    SPEC_BENCHMARKS,
    gkb5,
    graph,
    non_intensive,
    parsec,
    qmm,
    spec,
)
from repro.workloads.synthetic import SyntheticWorkload

#: GKB5 indices in the seen set (101 and 310 appear in Figure 2)
_GKB5_SEEN = (101, 310, 7, 19, 33, 42, 55, 68, 74, 88, 95, 120, 133, 147, 152,
              166, 171, 189, 204, 218, 225, 239, 246, 258)
_GKB5_UNSEEN = (301, 317, 322, 338, 345, 359, 364, 378, 385, 399, 406, 412,
                428, 437, 449, 466)

#: QMM_INT ids in the seen set (13, 365, 859 appear in Figure 2)
_QMM_INT_SEEN = (13, 365, 859) + tuple(range(100, 164, 2))
_QMM_INT_UNSEEN = tuple(range(501, 557, 2))

#: QMM_FP ids (44 appears in Figure 2)
_QMM_FP_SEEN = (44,) + tuple(range(200, 238, 2))
_QMM_FP_UNSEEN = tuple(range(601, 641, 2))


@lru_cache(maxsize=None)
def seen_workloads() -> tuple[SyntheticWorkload, ...]:
    """The 218 seen (development) workloads."""
    workloads: list[SyntheticWorkload] = []
    for benchmark in SPEC_BENCHMARKS:
        for simpoint in range(3):
            workloads.append(spec(benchmark, simpoint))
    for algorithm in GAP_ALGORITHMS:
        for flavour in GRAPH_FLAVOURS:
            workloads.append(graph(algorithm, flavour, "GAP"))
    for algorithm in LIGRA_ALGORITHMS:
        for flavour in LIGRA_FLAVOURS:
            workloads.append(graph(algorithm, flavour, "LIGRA"))
    for benchmark in PARSEC_BENCHMARKS:
        workloads.append(parsec(benchmark))
    for index in _GKB5_SEEN:
        workloads.append(gkb5(index))
    for index in _QMM_INT_SEEN:
        workloads.append(qmm("int", index))
    for index in _QMM_FP_SEEN:
        workloads.append(qmm("fp", index))
    return tuple(workloads)


@lru_cache(maxsize=None)
def unseen_workloads() -> tuple[SyntheticWorkload, ...]:
    """The 178 unseen (held-out) workloads."""
    workloads: list[SyntheticWorkload] = []
    for benchmark in SPEC_BENCHMARKS:
        for simpoint in (3, 4):
            workloads.append(spec(benchmark, simpoint))
    for algorithm in GAP_ALGORITHMS:
        for flavour in GRAPH_FLAVOURS:
            workloads.append(graph(algorithm, flavour, "GAP", seed=1))
    for algorithm in LIGRA_ALGORITHMS:
        for flavour in LIGRA_FLAVOURS:
            workloads.append(graph(algorithm, flavour, "LIGRA", seed=1))
    for benchmark in PARSEC_BENCHMARKS:
        workloads.append(parsec(benchmark, seed=1))
    for index in _GKB5_UNSEEN:
        workloads.append(gkb5(index))
    for index in _QMM_INT_UNSEEN:
        workloads.append(qmm("int", index))
    for index in _QMM_FP_UNSEEN:
        workloads.append(qmm("fp", index))
    return tuple(workloads)


@lru_cache(maxsize=None)
def non_intensive_workloads() -> tuple[SyntheticWorkload, ...]:
    """Non-memory-intensive workloads (LLC MPKI < 1, Section V-B9)."""
    return tuple(non_intensive(i) for i in range(40))


@lru_cache(maxsize=None)
def motivation_workloads() -> tuple[SyntheticWorkload, ...]:
    """The memory-intensive subset used in the Section II-C motivation study.

    Includes every workload named in the Figure 2 discussion.
    """
    names = [
        # Permit PGC wins (per the paper)
        "astar", "cc.road", "MIS.road", "vips", "qmm_int_365", "gkb5_101",
        "tc.road", "qmm_int_13", "lbm", "libquantum", "bwaves",
        # Discard PGC wins
        "sphinx3", "fotonik3d_s", "bc.web", "pr.web", "qmm_int_859",
        "qmm_fp_44", "gkb5_310", "soplex", "fluidanimate",
        # mixed / neutral
        "mcf", "omnetpp", "gcc", "canneal", "bfs.urand", "PageRank.web",
    ]
    return tuple(by_name(name) for name in names)


@lru_cache(maxsize=None)
def _name_index() -> dict[str, SyntheticWorkload]:
    index: dict[str, SyntheticWorkload] = {}
    for workload in (seen_workloads() + unseen_workloads()
                     + non_intensive_workloads()):
        index[workload.name] = workload
    return index


def by_name(name: str) -> SyntheticWorkload:
    """Look a workload up by its registry name."""
    index = _name_index()
    if name not in index:
        raise KeyError(f"unknown workload {name!r} ({len(index)} registered)")
    return index[name]


def stratified_sample(
    workloads: tuple[SyntheticWorkload, ...], count: int, seed: int = 0
) -> list[SyntheticWorkload]:
    """Deterministic suite-balanced sample of `count` workloads."""
    if count >= len(workloads):
        return list(workloads)
    by_suite: dict[str, list[SyntheticWorkload]] = {}
    for workload in workloads:
        by_suite.setdefault(workload.suite, []).append(workload)
    rng = random.Random(seed)
    suites = sorted(by_suite)
    picked: list[SyntheticWorkload] = []
    quota = {suite: max(1, round(count * len(by_suite[suite]) / len(workloads))) for suite in suites}
    for suite in suites:
        pool = by_suite[suite]
        picked.extend(rng.sample(pool, min(quota[suite], len(pool))))
    rng.shuffle(picked)
    return picked[:count]


def make_mixes(n_mixes: int = 300, mix_size: int = 8, seed: int = 42) -> list[list[SyntheticWorkload]]:
    """Random multi-core mixes drawn from the seen set (Section IV-A2)."""
    rng = random.Random(seed)
    pool = list(seen_workloads())
    return [rng.sample(pool, mix_size) for _ in range(n_mixes)]
