"""Experiment definitions: one function per table/figure of the evaluation.

Every function reproduces the *procedure* behind one of the paper's exhibits
on a configurable workload sample (`Scale`), returning plain dicts of numbers
that the corresponding bench in ``benchmarks/`` prints.  EXPERIMENTS.md maps
each function to the paper exhibit and records measured-vs-paper shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.experiments.metrics import average, geomean, geomean_speedup, speedup_percent
from repro.experiments.runner import RunSpec, run_many, run_policies
from repro.workloads import (
    make_mixes,
    motivation_workloads,
    non_intensive_workloads,
    seen_workloads,
    stratified_sample,
    unseen_workloads,
)


@dataclass(frozen=True)
class Scale:
    """Sampling and trace-length knobs for one experiment run."""

    n_workloads: int = 12
    warmup_instructions: int = 16_000
    sim_instructions: int = 48_000
    seed: int = 1

    def spec(self, **kwargs) -> RunSpec:
        """RunSpec carrying this scale's trace lengths."""
        return RunSpec(
            warmup_instructions=self.warmup_instructions,
            sim_instructions=self.sim_instructions,
            **kwargs,
        )


DEFAULT_SCALE = Scale()


def _sample_seen(scale: Scale):
    return stratified_sample(seen_workloads(), scale.n_workloads, scale.seed)


def _motivation_sample(scale: Scale):
    """Even-stride sample of the motivation set.

    The set is ordered friendly-first (mirroring the Figure 2 discussion),
    so a stride sample keeps both behaviours represented at any size.
    """
    workloads = list(motivation_workloads())
    n = max(scale.n_workloads, 8)
    if n >= len(workloads):
        return workloads
    stride = len(workloads) / n
    return [workloads[int(i * stride)] for i in range(n)]


# ---------------------------------------------------------------------------
# Section II-C motivation


def fig2_motivation_ipc(scale: Scale = DEFAULT_SCALE, prefetchers: Sequence[str] = ("berti", "bop", "ipcp")):
    """Figure 2: per-workload IPC gain of Permit PGC over Discard PGC."""
    workloads = _motivation_sample(scale)
    out: dict[str, dict] = {}
    for prefetcher in prefetchers:
        res = run_policies(workloads, ["discard", "permit"], prefetcher=prefetcher, base_spec=scale.spec())
        gains = [
            (r.workload, speedup_percent(r.speedup_over(b)))
            for r, b in zip(res["permit"], res["discard"])
        ]
        out[prefetcher] = {
            "per_workload_pct": gains,
            "geomean_pct": speedup_percent(geomean_speedup(res["permit"], res["discard"])),
        }
    return out


def fig3_usefulness(scale: Scale = DEFAULT_SCALE, prefetchers: Sequence[str] = ("berti", "bop", "ipcp")):
    """Figure 3: useful/useless split of page-cross prefetches under Permit."""
    workloads = _motivation_sample(scale)
    out: dict[str, dict] = {}
    for prefetcher in prefetchers:
        results = run_many(workloads, scale.spec(prefetcher=prefetcher, policy="permit"))
        split = []
        for r in results:
            total = r.pgc_useful + r.pgc_useless
            if total:
                split.append((r.workload, 100.0 * r.pgc_useful / total, 100.0 * r.pgc_useless / total))
        out[prefetcher] = {
            "per_workload_pct": split,
            "avg_useful_pct": average(s[1] for s in split),
            "avg_useless_pct": average(s[2] for s in split),
        }
    return out


def fig4_mpki_split(scale: Scale = DEFAULT_SCALE):
    """Figure 4: Permit's MPKI impact, split by which static policy wins."""
    workloads = _motivation_sample(scale)
    res = run_policies(workloads, ["discard", "permit"], prefetcher="berti", base_spec=scale.spec())
    permit_wins, discard_wins = [], []
    for r, b in zip(res["permit"], res["discard"]):
        deltas = {
            "workload": r.workload,
            "dtlb": r.dtlb_mpki - b.dtlb_mpki,
            "stlb": r.stlb_mpki - b.stlb_mpki,
            "l1d": r.l1d_mpki - b.l1d_mpki,
            "llc": r.llc_mpki - b.llc_mpki,
        }
        (permit_wins if r.ipc >= b.ipc else discard_wins).append(deltas)

    def summary(rows):
        return {k: average(row[k] for row in rows) for k in ("dtlb", "stlb", "l1d", "llc")}

    return {
        "permit_wins": {"workloads": permit_wins, "avg_delta": summary(permit_wins) if permit_wins else {}},
        "discard_wins": {"workloads": discard_wins, "avg_delta": summary(discard_wins) if discard_wins else {}},
    }


# ---------------------------------------------------------------------------
# Section V-A: scheme comparison


FIG9_POLICIES = ("permit", "discard-ptw", "iso", "ppf", "ppf+dthr", "dripper")


def fig9_scheme_comparison(
    scale: Scale = DEFAULT_SCALE,
    prefetchers: Sequence[str] = ("berti", "bop", "ipcp"),
    policies: Sequence[str] = FIG9_POLICIES,
):
    """Figure 9: geomean IPC of all schemes over Discard PGC, per prefetcher."""
    workloads = _sample_seen(scale)
    out: dict[str, dict[str, float]] = {}
    for prefetcher in prefetchers:
        res = run_policies(workloads, ["discard", *policies], prefetcher=prefetcher, base_spec=scale.spec())
        base = res["discard"]
        out[prefetcher] = {
            policy: speedup_percent(geomean_speedup(res[policy], base)) for policy in policies
        }
    return out


# ---------------------------------------------------------------------------
# Section V-B: Berti case study


def _berti_three_way(workloads, scale: Scale, **spec_kwargs):
    return run_policies(
        workloads, ["discard", "permit", "dripper"], prefetcher="berti",
        base_spec=scale.spec(**spec_kwargs),
    )


def fig10_berti_breakdown(scale: Scale = DEFAULT_SCALE):
    """Figure 10: per-workload s-curves + per-suite geomean breakdown."""
    workloads = _sample_seen(scale)
    res = _berti_three_way(workloads, scale)
    base = res["discard"]
    curves = {}
    for policy in ("permit", "dripper"):
        gains = sorted(
            speedup_percent(r.speedup_over(b)) for r, b in zip(res[policy], base)
        )
        curves[policy] = gains
    suites: dict[str, dict[str, list]] = {}
    for policy in ("permit", "dripper"):
        for r, b in zip(res[policy], base):
            bucket = suites.setdefault(_suite_of(workloads, r.workload), {})
            bucket.setdefault(policy, []).append(r.speedup_over(b))
    per_suite = {
        suite: {policy: speedup_percent(geomean(vals)) for policy, vals in buckets.items()}
        for suite, buckets in suites.items()
    }
    overall = {
        policy: speedup_percent(geomean_speedup(res[policy], base)) for policy in ("permit", "dripper")
    }
    return {"s_curves_pct": curves, "per_suite_pct": per_suite, "overall_pct": overall}


def _suite_of(workloads, name: str) -> str:
    for w in workloads:
        if w.name == name:
            return w.suite
    return "?"


def fig11_coverage_accuracy(scale: Scale = DEFAULT_SCALE):
    """Figure 11: miss coverage (top) and accuracy (bottom) per suite."""
    workloads = _sample_seen(scale)
    res = _berti_three_way(workloads, scale)
    suites: dict[str, dict[str, dict[str, list]]] = {}
    for policy in ("discard", "permit", "dripper"):
        for r in res[policy]:
            suite = _suite_of(workloads, r.workload)
            bucket = suites.setdefault(suite, {}).setdefault(policy, {"cov": [], "acc": []})
            bucket["cov"].append(r.prefetch_coverage)
            bucket["acc"].append(r.prefetch_accuracy)
    out = {}
    for suite, policies in suites.items():
        base = policies["discard"]
        out[suite] = {
            policy: {
                "coverage_delta_pct": 100.0 * (average(policies[policy]["cov"]) - average(base["cov"])),
                "accuracy_delta_pct": 100.0 * (average(policies[policy]["acc"]) - average(base["acc"])),
            }
            for policy in ("permit", "dripper")
        }
    totals = {}
    for policy in ("permit", "dripper"):
        cov_d, acc_d = [], []
        for r, b in zip(res[policy], res["discard"]):
            cov_d.append(r.prefetch_coverage - b.prefetch_coverage)
            acc_d.append(r.prefetch_accuracy - b.prefetch_accuracy)
        totals[policy] = {
            "coverage_delta_pct": 100.0 * average(cov_d),
            "accuracy_delta_pct": 100.0 * average(acc_d),
        }
    return {"per_suite": out, "overall": totals}


def fig12_mpki_impact(scale: Scale = DEFAULT_SCALE):
    """Figure 12: dTLB/sTLB/L1D/LLC MPKI deltas of Permit & DRIPPER."""
    workloads = _sample_seen(scale)
    res = _berti_three_way(workloads, scale)
    base = res["discard"]
    out = {}
    for policy in ("permit", "dripper"):
        deltas = {"dtlb": [], "stlb": [], "l1d": [], "llc": []}
        for r, b in zip(res[policy], base):
            deltas["dtlb"].append(r.dtlb_mpki - b.dtlb_mpki)
            deltas["stlb"].append(r.stlb_mpki - b.stlb_mpki)
            deltas["l1d"].append(r.l1d_mpki - b.l1d_mpki)
            deltas["llc"].append(r.llc_mpki - b.llc_mpki)
        out[policy] = {
            "sorted_deltas": {k: sorted(v) for k, v in deltas.items()},
            "avg_delta": {k: average(v) for k, v in deltas.items()},
        }
    return out


def fig13_pgc_pki(scale: Scale = DEFAULT_SCALE):
    """Figure 13: useful/useless page-cross prefetches per kilo-instruction."""
    workloads = _sample_seen(scale)
    res = _berti_three_way(workloads, scale)
    out = {}
    for policy in ("permit", "dripper"):
        out[policy] = {
            "useful_pki": sorted(r.pgc_useful_pki for r in res[policy]),
            "useless_pki": sorted(r.pgc_useless_pki for r in res[policy]),
            "avg_useful_pki": average(r.pgc_useful_pki for r in res[policy]),
            "avg_useless_pki": average(r.pgc_useless_pki for r in res[policy]),
        }
    return out


def fig14_single_features(scale: Scale = DEFAULT_SCALE):
    """Figure 14: DRIPPER vs its three constituent single-feature filters."""
    res = run_policies(
        _sample_seen(scale),
        ["discard", "dripper", "single:Delta", "single:sTLB MPKI", "single:sTLB Miss Rate"],
        prefetcher="berti", base_spec=scale.spec(),
    )
    base = res.pop("discard")
    return {policy: speedup_percent(geomean_speedup(results, base))
            for policy, results in res.items()}


def fig15_dripper_sf(scale: Scale = DEFAULT_SCALE):
    """Figure 15: DRIPPER vs DRIPPER-SF (system features only)."""
    workloads = _sample_seen(scale)
    res = run_policies(
        workloads, ["discard", "dripper", "dripper-sf"], prefetcher="berti", base_spec=scale.spec()
    )
    base = res["discard"]
    return {
        "dripper_pct": speedup_percent(geomean_speedup(res["dripper"], base)),
        "dripper_sf_pct": speedup_percent(geomean_speedup(res["dripper-sf"], base)),
    }


def fig16_large_pages(scale: Scale = DEFAULT_SCALE, large_page_fraction: float = 0.5):
    """Figure 16: 4KB+2MB system; DRIPPER vs DRIPPER(filter@2MB) vs Permit."""
    workloads = _sample_seen(scale)
    spec = scale.spec(prefetcher="berti", large_page_fraction=large_page_fraction)
    res = run_policies(
        workloads, ["discard", "permit", "dripper"], prefetcher="berti", base_spec=spec
    )
    base = res["discard"]
    res_2mb = run_many(workloads, replace(spec, policy="dripper", filter_at_native_boundary=True))
    return {
        "permit_pct": speedup_percent(geomean_speedup(res["permit"], base)),
        "dripper_pct": speedup_percent(geomean_speedup(res["dripper"], base)),
        "dripper_filter2mb_pct": speedup_percent(geomean_speedup(res_2mb, base)),
    }


def fig17_l2_prefetchers(scale: Scale = DEFAULT_SCALE, l2_prefetchers: Sequence[str] = ("none", "spp", "ipcp", "bop")):
    """Figure 17: Permit & DRIPPER gains under different L2C prefetchers."""
    workloads = _sample_seen(scale)
    out = {}
    for l2 in l2_prefetchers:
        res = run_policies(
            workloads, ["discard", "permit", "dripper"], prefetcher="berti",
            base_spec=scale.spec(l2_prefetcher=l2),
        )
        base = res["discard"]
        out[l2] = {
            "permit_pct": speedup_percent(geomean_speedup(res["permit"], base)),
            "dripper_pct": speedup_percent(geomean_speedup(res["dripper"], base)),
        }
    return out


def fig18_unseen(scale: Scale = DEFAULT_SCALE):
    """Figure 18: Permit & DRIPPER on the unseen workload set."""
    workloads = stratified_sample(unseen_workloads(), scale.n_workloads, scale.seed)
    res = _berti_three_way(workloads, scale)
    base = res["discard"]
    return {
        "permit_pct": speedup_percent(geomean_speedup(res["permit"], base)),
        "dripper_pct": speedup_percent(geomean_speedup(res["dripper"], base)),
        "per_workload_dripper_pct": sorted(
            speedup_percent(r.speedup_over(b)) for r, b in zip(res["dripper"], base)
        ),
    }


def table5_all_workloads(scale: Scale = DEFAULT_SCALE):
    """Table V: geomeans over seen / unseen / all (incl. non-intensive)."""
    seen = stratified_sample(seen_workloads(), scale.n_workloads, scale.seed)
    unseen = stratified_sample(unseen_workloads(), scale.n_workloads, scale.seed)
    calm = stratified_sample(non_intensive_workloads(), max(4, scale.n_workloads // 3), scale.seed)
    out = {}
    all_speedups: dict[str, list[float]] = {"permit": [], "dripper": []}
    for label, workloads in (("seen", seen), ("unseen", unseen), ("non_intensive", calm)):
        res = _berti_three_way(workloads, scale)
        base = res["discard"]
        out[label] = {
            policy: speedup_percent(geomean_speedup(res[policy], base))
            for policy in ("permit", "dripper")
        }
        for policy in ("permit", "dripper"):
            all_speedups[policy].extend(r.speedup_over(b) for r, b in zip(res[policy], base))
    out["all"] = {policy: speedup_percent(geomean(vals)) for policy, vals in all_speedups.items()}
    return out


# ---------------------------------------------------------------------------
# Section V-B10: multi-core


def fig19_multicore(
    n_mixes: int = 4,
    cores: int = 8,
    warmup_instructions: int = 8_000,
    sim_instructions: int = 24_000,
    seed: int = 42,
    *,
    policies: Sequence[str] = ("discard", "permit", "dripper"),
    jobs: int = 1,
    cache=None,
    obs=None,
    packed: bool = True,
    validate: bool = False,
    progress=None,
):
    """Figure 19: weighted-speedup distribution over 8-core mixes.

    The first policy is the normalisation baseline (the paper's Discard
    PGC); every other policy is reported as a per-mix weighted-speedup
    distribution plus its geomean.  The paper runs 300 mixes
    (``n_mixes=300``); at that scale pass ``jobs=`` to fan mixes out as
    affine chunks (one mix per worker chunk) and ``cache=``
    (a :class:`~repro.experiments.cache.ResultCache`) to dedupe the
    isolation runs — every workload × policy isolation IPC is an ordinary
    content-addressed cell, shared across all mixes that draw it.
    """
    from repro.experiments.parallel import (
        cell_for,
        grid_session,
        mix_cell_for,
        run_cells,
        run_mix_cells,
    )
    from repro.params import DEFAULT_PARAMS

    if len(policies) < 2:
        raise ValueError(
            f"need a baseline plus at least one policy, got {policies!r}")
    mixes = make_mixes(n_mixes, cores, seed)
    spec = RunSpec(
        prefetcher="berti",
        warmup_instructions=warmup_instructions,
        sim_instructions=sim_instructions,
        packed=packed,
        validate=validate,
    )
    # every distinct workload needs one isolation IPC per policy — on the
    # *mix-scaled* system (8x LLC/DRAM for one core); dedupe across mixes
    unique = {w.name: w for mix in mixes for w in mix}
    iso_params = DEFAULT_PARAMS.scaled_llc(cores)
    iso_cells = [
        cell_for(w, replace(spec, policy=policy, params=iso_params))
        for policy in policies
        for w in unique.values()
    ]
    mix_cells = [
        mix_cell_for(mix, replace(spec, policy=policy), mix_id=i)
        for policy in policies
        for i, mix in enumerate(mixes)
    ]
    with grid_session(jobs):
        iso_flat = run_cells(iso_cells, jobs=jobs, cache=cache, obs=obs,
                             progress=progress)
        mix_flat = run_mix_cells(mix_cells, jobs=jobs, obs=obs, progress=progress)
    names = list(unique)
    iso_ipc = {
        (policy, name): iso_flat[p * len(names) + n].ipc
        for p, policy in enumerate(policies)
        for n, name in enumerate(names)
    }
    wipc: dict[str, list[float]] = {}
    for p, policy in enumerate(policies):
        rows = mix_flat[p * len(mixes):(p + 1) * len(mixes)]
        wipc[policy] = [
            result.weighted_ipc([iso_ipc[(policy, w.name)] for w in mix])
            for mix, result in zip(mixes, rows)
        ]
    baseline = policies[0]
    return {
        policy: {
            "per_mix_pct": sorted(
                speedup_percent(s / b)
                for s, b in zip(wipc[policy], wipc[baseline])
            ),
            "geomean_pct": speedup_percent(geomean(
                s / b for s, b in zip(wipc[policy], wipc[baseline])
            )),
        }
        for policy in policies[1:]
    }
