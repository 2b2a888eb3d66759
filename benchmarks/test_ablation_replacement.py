"""Ablation: can prefetch-aware cache insertion substitute for filtering?

The related-work section (§VI, "Prefetch Management") lists policies that
make the *cache* prefetch-aware ([43], [74], [91]) instead of filtering the
prefetches.  This bench contrasts the two mitigations: prefetch-aware LRU
insertion (PACMan-style) limits cache pollution from useless page-cross
prefetches but cannot prevent the speculative page walks or the TLB
pollution — the costs the paper's filter uniquely removes.

Expected shape: Permit+pa-lru recovers part of Permit's loss; DRIPPER (with
plain LRU) still wins.
"""

from dataclasses import replace as dc_replace

from conftest import bench_scale

from repro.experiments import format_table, geomean_speedup, run_policies, speedup_percent
from repro.experiments.runner import RunSpec
from repro.params import DEFAULT_PARAMS
from repro.workloads import seen_workloads, stratified_sample


def _params_with_replacement(name: str):
    return dc_replace(DEFAULT_PARAMS, l1d=dc_replace(DEFAULT_PARAMS.l1d, replacement=name))


def run_ablation(scale):
    workloads = stratified_sample(seen_workloads(), scale.n_workloads, scale.seed)
    spec = RunSpec(
        prefetcher="berti",
        warmup_instructions=scale.warmup_instructions,
        sim_instructions=scale.sim_instructions,
    )

    res = {
        replacement: run_policies(
            workloads, policies,
            base_spec=dc_replace(spec, params=_params_with_replacement(replacement)))
        for replacement, policies in (("lru", ["discard", "permit", "dripper"]),
                                      ("pa-lru", ["permit", "dripper"]))
    }
    base = res["lru"]["discard"]
    return {
        f"{policy} + {replacement}": speedup_percent(
            geomean_speedup(res[replacement][policy], base))
        for policy in ("permit", "dripper")
        for replacement in ("lru", "pa-lru")
    }


def test_ablation_replacement(benchmark):
    scale = bench_scale(n_workloads=8)
    data = benchmark.pedantic(lambda: run_ablation(scale), rounds=1, iterations=1)
    print()
    print(format_table(
        ["configuration", "geomean vs Discard+LRU"],
        [(k, f"{v:+.2f}%") for k, v in data.items()],
        "Ablation — prefetch-aware insertion vs page-cross filtering",
    ))
    benchmark.extra_info.update({k: round(v, 2) for k, v in data.items()})

    # insertion policy alone must not replace filtering
    assert data["dripper + lru"] > data["permit + pa-lru"], (
        "filtering removes walk/TLB costs that insertion policies cannot"
    )
    assert data["dripper + lru"] > data["permit + lru"]
