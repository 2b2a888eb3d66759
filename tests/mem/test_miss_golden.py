"""Golden digests of the miss path: every access entry point, bit for bit.

The miss sequence (merge into an in-flight fill, wait for a free MSHR, read
the level below, record the miss, fill) is shared by the generator loop and
the fused record kernel, so the differential suite cannot see a slip in it.
These digests pin its results instead:

* a seeded mix of every ``MemoryHierarchy`` entry point on two cores that
  share an LLC and DRAM, with 2-entry MSHRs and a few sets per level, so
  merges, MSHR stalls, evictions and dirty writebacks all fire; every return
  value and the final state of each cache, the per-core LLC stats and DRAM
  are hashed;
* whole-run ``SimResult`` digests for paths that the benchmark suite never
  runs: an L2 prefetcher under Berti + DRIPPER (packed and on the generator
  loop) and Permit with half the pages large.

A digest changes only when a result does; a deliberate semantic change
must re-record them and say why.
"""

import hashlib
import random
from dataclasses import asdict

import pytest

from repro.core import make_dripper
from repro.core.policies import PermitPgc
from repro.cpu.simulator import SimConfig, simulate
from repro.mem.hierarchy import MemoryHierarchy
from repro.params import CacheParams, DramParams, SystemParams
from repro.workloads import by_name


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _tiny_params() -> SystemParams:
    return SystemParams(
        l1i=CacheParams("L1I", 4 * 2 * 64, 2, 4, 2),
        l1d=CacheParams("L1D", 4 * 2 * 64, 2, 5, 2),
        l2c=CacheParams("L2C", 8 * 2 * 64, 2, 10, 2),
        llc=CacheParams("LLC", 16 * 2 * 64, 2, 20, 2),
        dram=DramParams(row_buffer=True, lines_per_row=8),
    )


def _cache_state(cache) -> tuple:
    blocks = [
        [(line, b.ready, b.dirty, b.prefetched, b.pcb, b.hits) for line, b in cset.items()]
        for cset in cache._sets
    ]
    return (
        cache.name,
        (cache.stats.accesses, cache.stats.hits, cache.stats.misses),
        (cache.demand_stats.accesses, cache.demand_stats.hits, cache.demand_stats.misses),
        (cache.prefetch_fills, cache.prefetch_useful, cache.prefetch_useless,
         cache.prefetch_late, cache.pgc_fills, cache.pgc_useful, cache.pgc_useless),
        sorted(cache._outstanding.items()),
        sorted(cache._mshr_heap),
        blocks,
    )


def _drive_hierarchies(seed: int, ops: int) -> str:
    params = _tiny_params()
    first = MemoryHierarchy(params)
    cores = [first, MemoryHierarchy(params, shared_llc=first.llc, shared_dram=first.dram)]
    rng = random.Random(seed)
    t = 0.0
    returned = []
    for _ in range(ops):
        # mostly forward, sometimes back in time (cores are not in lockstep)
        t = max(0.0, t + rng.uniform(-60.0, 90.0))
        h = cores[rng.randrange(2)]
        paddr = rng.randrange(96) << 6
        op = rng.randrange(9)
        if op == 0:
            returned.append(h.load(paddr, t))
        elif op == 1:
            returned.append(h.store(paddr, t))
        elif op == 2:
            returned.append(h.ifetch(paddr, t))
        elif op == 3:
            returned.append(h.prefetch_l1i(paddr, t))
        elif op == 4:
            returned.append(h.prefetch_l1d(paddr, t))
        elif op == 5:
            returned.append(h.prefetch_l1d(paddr, t, pcb=True))
        elif op == 6:
            returned.append(h.prefetch_l2(paddr, t))
        else:
            returned.append(h.ptw_read(paddr, t, speculative=op == 8))
    dram = first.dram
    state = (
        [_cache_state(c) for h in cores for c in (h.l1i, h.l1d, h.l2c)],
        _cache_state(first.llc),
        [(h.llc_core_stats.accesses, h.llc_core_stats.hits, h.llc_core_stats.misses)
         for h in cores],
        (dram.reads, dram.writes, dram.row_hits, dram.row_misses, dram._next_free,
         dram._open_rows),
    )
    return _digest(repr((returned, state)))


#: seed -> digest, recorded before the entry points shared one miss routine
HIERARCHY_GOLDEN = {
    0: "0d55f5e39d7dd5d7",
    1: "5211ca1f204f00e4",
    2: "322b5cff09edd171",
}


@pytest.mark.parametrize("seed", sorted(HIERARCHY_GOLDEN))
def test_hierarchy_entry_points_golden(seed):
    assert _drive_hierarchies(seed, 3_000) == HIERARCHY_GOLDEN[seed]


def test_golden_drive_exercises_every_miss_arm():
    """The tiny hierarchy really merges, stalls, evicts and writes back."""
    params = _tiny_params()
    first = MemoryHierarchy(params)
    second = MemoryHierarchy(params, shared_llc=first.llc, shared_dram=first.dram)
    stalls = []
    for cache in (first.l1d, first.l2c, first.llc):
        delay = cache.mshr_delay
        cache.mshr_delay = lambda t, delay=delay: stalls.append(delay(t)) or stalls[-1]
    rng = random.Random(0)
    t = 0.0
    merges = 0
    for _ in range(2_000):
        t = max(0.0, t + rng.uniform(-60.0, 90.0))
        h = (first, second)[rng.randrange(2)]
        paddr = rng.randrange(96) << 6
        if rng.randrange(2):
            h.store(paddr, t)
        else:
            line = paddr >> 6
            if h.l1d.probe(line) is None and h.l1d._outstanding.get(line, 0.0) > t:
                merges += 1
            h.load(paddr, t)
    assert merges > 0
    assert any(s > 0.0 for s in stalls)
    assert first.l1d.stats.misses > first.l1d.occupancy()
    assert first.dram.writes > 0


def _sim_config(l2_prefetcher: str, packed: bool) -> SimConfig:
    return SimConfig(prefetcher="berti", policy_factory=lambda: make_dripper("berti"),
                     l2_prefetcher=l2_prefetcher, warmup_instructions=4_000,
                     sim_instructions=12_000, packed=packed)


_SIM_CASES = {
    **{f"dripper-l2{l2}-{'packed' if packed else 'generator'}":
       (lambda l2=l2, packed=packed: _sim_config(l2, packed))
       for l2 in ("spp", "ipcp", "bop") for packed in (True, False)},
    "permit-large-pages": lambda: SimConfig(
        prefetcher="berti", policy_factory=PermitPgc, large_page_fraction=0.5,
        warmup_instructions=4_000, sim_instructions=12_000, packed=True),
}

#: (workload, case) -> digest of the whole SimResult, recorded before the
#: entry points shared one miss routine
SIM_GOLDEN = {
    ("astar", "dripper-l2bop-generator"): "b4923430dc67f75c",
    ("astar", "dripper-l2bop-packed"): "b4923430dc67f75c",
    ("astar", "dripper-l2ipcp-generator"): "b4923430dc67f75c",
    ("astar", "dripper-l2ipcp-packed"): "b4923430dc67f75c",
    ("astar", "dripper-l2spp-generator"): "b4923430dc67f75c",
    ("astar", "dripper-l2spp-packed"): "b4923430dc67f75c",
    ("astar", "permit-large-pages"): "d1a8c32317870c68",
    ("bfs.kron", "dripper-l2bop-generator"): "6bc4634b7b465714",
    ("bfs.kron", "dripper-l2bop-packed"): "6bc4634b7b465714",
    ("bfs.kron", "dripper-l2ipcp-generator"): "6bc4634b7b465714",
    ("bfs.kron", "dripper-l2ipcp-packed"): "6bc4634b7b465714",
    ("bfs.kron", "dripper-l2spp-generator"): "0e796a0bf599e13d",
    ("bfs.kron", "dripper-l2spp-packed"): "0e796a0bf599e13d",
    ("bfs.kron", "permit-large-pages"): "aed39db9866a1294",
    ("mcf", "dripper-l2bop-generator"): "397b1eb1984fb525",
    ("mcf", "dripper-l2bop-packed"): "397b1eb1984fb525",
    ("mcf", "dripper-l2ipcp-generator"): "397b1eb1984fb525",
    ("mcf", "dripper-l2ipcp-packed"): "397b1eb1984fb525",
    ("mcf", "dripper-l2spp-generator"): "397b1eb1984fb525",
    ("mcf", "dripper-l2spp-packed"): "397b1eb1984fb525",
    ("mcf", "permit-large-pages"): "556abedc41068bac",
}


@pytest.mark.parametrize("workload,case", sorted(SIM_GOLDEN))
def test_sim_result_golden(workload, case):
    result = simulate(by_name(workload), _SIM_CASES[case]())
    assert _digest(repr(sorted(asdict(result).items()))) == SIM_GOLDEN[(workload, case)]
