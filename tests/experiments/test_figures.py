"""Smoke tests for the figure experiment functions (tiny scales).

Full-scale shape assertions live in benchmarks/; these verify structure,
keys, and basic sanity so a broken experiment fails fast in the test suite.
"""

import pytest

from repro.experiments import Scale, fig2_motivation_ipc, fig4_mpki_split, fig15_dripper_sf

TINY = Scale(n_workloads=4, warmup_instructions=3_000, sim_instructions=8_000, seed=2)


@pytest.mark.slow
class TestFigureStructure:
    def test_fig2_structure(self):
        data = fig2_motivation_ipc(TINY, prefetchers=("berti",))
        assert set(data) == {"berti"}
        block = data["berti"]
        assert len(block["per_workload_pct"]) >= 8
        for name, pct in block["per_workload_pct"]:
            assert isinstance(name, str)
            # tiny traces can see multi-x swings; just require sane bounds
            assert -100 < pct < 1000

    def test_fig4_structure(self):
        data = fig4_mpki_split(TINY)
        assert set(data) == {"permit_wins", "discard_wins"}
        total = len(data["permit_wins"]["workloads"]) + len(data["discard_wins"]["workloads"])
        assert total >= 8

    def test_fig15_structure(self):
        data = fig15_dripper_sf(TINY)
        assert set(data) == {"dripper_pct", "dripper_sf_pct"}

    def test_fig13_structure(self):
        from repro.experiments import fig13_pgc_pki

        data = fig13_pgc_pki(TINY)
        for policy in ("permit", "dripper"):
            assert len(data[policy]["useful_pki"]) == len(data[policy]["useless_pki"])
            assert data[policy]["avg_useful_pki"] >= 0.0

    def test_fig18_structure(self):
        from repro.experiments import fig18_unseen

        data = fig18_unseen(TINY)
        assert set(data) == {"permit_pct", "dripper_pct", "per_workload_dripper_pct"}
        assert data["per_workload_dripper_pct"] == sorted(data["per_workload_dripper_pct"])


class TestFig14Lockstep:
    def test_output_matches_one_simulate_per_cell(self):
        """Fig. 14 through simulate_policies equals its per-cell simulate() procedure."""
        from dataclasses import replace

        from repro.core.filter import single_feature_filter
        from repro.cpu.simulator import simulate
        from repro.experiments import fig14_single_features, geomean_speedup, speedup_percent
        from repro.experiments.figures import _sample_seen

        scale = Scale(n_workloads=4, warmup_instructions=1_000, sim_instructions=3_000, seed=2)
        spec = scale.spec(prefetcher="berti")
        workloads = _sample_seen(scale)

        def column(factory=None, policy="discard"):
            results = []
            for workload in workloads:
                config = replace(spec, policy=policy).config_for(workload)
                if factory is not None:
                    config = replace(config, policy_factory=factory)
                results.append(simulate(workload, config))
            return results

        base = column()
        expected = {"dripper": speedup_percent(geomean_speedup(column(policy="dripper"), base))}
        for name, system in (("Delta", False), ("sTLB MPKI", True), ("sTLB Miss Rate", True)):
            results = column(lambda: single_feature_filter(name, system=system))
            expected[f"single:{name}"] = speedup_percent(geomean_speedup(results, base))
        data = fig14_single_features(scale)
        assert list(data) == list(expected)
        assert data == expected  # exact float equality
