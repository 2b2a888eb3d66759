"""Feature zoo: every Table I program feature as a single-feature filter.

Extends Figure 14's comparison to the full Table I set (the paper reports
only the selected subset).  Shape: the Delta-family features dominate, PC-
and VA-derived features land in the middle, and no single feature should
catastrophically lose to Discard — the filter's conservative default plus
vUB bootstrap protect even poorly-correlated features.
"""

from conftest import bench_scale

from repro.core.features import TABLE_I_FEATURES
from repro.experiments import format_table, geomean_speedup, run_policies, speedup_percent
from repro.experiments.runner import RunSpec
from repro.workloads import seen_workloads, stratified_sample

#: Delta variants from the wider space, evaluated alongside Table I
EXTRA_FEATURES = ("Delta",)


def run_zoo(scale):
    workloads = stratified_sample(seen_workloads(), scale.n_workloads, scale.seed)
    spec = RunSpec(
        prefetcher="berti",
        warmup_instructions=scale.warmup_instructions,
        sim_instructions=scale.sim_instructions,
    )
    features = EXTRA_FEATURES + TABLE_I_FEATURES
    res = run_policies(workloads, ["discard", *(f"single:{name}" for name in features)],
                       base_spec=spec)
    return {
        name: speedup_percent(geomean_speedup(res[f"single:{name}"], res["discard"]))
        for name in features
    }


def test_feature_zoo(benchmark):
    scale = bench_scale(n_workloads=6)
    data = benchmark.pedantic(lambda: run_zoo(scale), rounds=1, iterations=1)
    ranked = sorted(data.items(), key=lambda kv: -kv[1])
    print()
    print(format_table(
        ["single program feature", "geomean vs Discard"],
        [(name, f"{pct:+.2f}%") for name, pct in ranked],
        "Feature zoo — every Table I feature as a lone filter",
    ))
    benchmark.extra_info["top3"] = [name for name, _ in ranked[:3]]
    benchmark.extra_info["bottom"] = ranked[-1][0]

    values = list(data.values())
    # no single feature collapses: the conservative default bounds the loss
    assert min(values) > -3.0, f"worst feature lost badly: {ranked[-1]}"
    # at least one delta-informed feature must carry real signal
    delta_family = [pct for name, pct in data.items() if "Delta" in name]
    assert max(delta_family) >= max(values) - 0.5
