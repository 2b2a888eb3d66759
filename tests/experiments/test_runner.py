"""Experiment runner: policy factories, run specs, QMM trace halving."""

import pytest

from repro.core.features import FEATURES
from repro.core.filter import PerceptronFilter
from repro.core.policies import DiscardPgc, DiscardPtw, PermitPgc
from repro.core.system_features import SYSTEM_FEATURES
from repro.experiments.runner import ISO_STORAGE_BYTES, RunSpec, policy_factory, run_many
from repro.workloads import by_name


class TestPolicyFactory:
    def test_static_policies(self):
        assert isinstance(policy_factory("discard", "berti")(), DiscardPgc)
        assert isinstance(policy_factory("permit", "berti")(), PermitPgc)
        assert isinstance(policy_factory("discard-ptw", "berti")(), DiscardPtw)

    def test_dripper_bound_to_prefetcher(self):
        dripper = policy_factory("dripper", "bop")()
        assert dripper.name == "dripper[bop]"

    def test_ppf_variants(self):
        assert policy_factory("ppf", "berti")().name == "ppf"
        assert policy_factory("ppf+dthr", "berti")().name == "ppf+dthr"

    def test_single_feature_filters(self):
        # Fig. 14's filters are registry names, so their cells are cacheable
        for name, features in (("single:Delta", ["Delta"]),
                               ("single:sTLB MPKI", []),
                               ("single:sTLB Miss Rate", [])):
            policy = policy_factory(name, "berti")()
            assert isinstance(policy, PerceptronFilter)
            assert policy.name == name
            assert [f.name for f in policy.features] == features
            assert len(policy.sys_specs) == 1 - len(features)

    def test_single_feature_for_every_registered_feature(self):
        for name in [*FEATURES, *SYSTEM_FEATURES]:
            policy = policy_factory(f"SINGLE:{name.upper()}", "berti")()
            assert policy.name == f"single:{name}"
        with pytest.raises(KeyError):
            policy_factory("single:no such feature", "berti")

    def test_feature_names_distinct_case_insensitively(self):
        # single:<name> resolves case-insensitively, so no two may collide
        names = [*FEATURES, *SYSTEM_FEATURES]
        assert len({name.lower() for name in names}) == len(names)

    def test_fresh_instance_per_call(self):
        factory = policy_factory("dripper", "berti")
        assert factory() is not factory()

    def test_iso_maps_to_permit(self):
        assert isinstance(policy_factory("iso", "berti")(), PermitPgc)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            policy_factory("yolo", "berti")


class TestRunSpec:
    def test_qmm_traces_halved(self):
        spec = RunSpec(warmup_instructions=10_000, sim_instructions=30_000)
        qmm = spec.config_for(by_name("qmm_int_13"))
        spec_w = spec.config_for(by_name("astar"))
        assert qmm.warmup_instructions == 5_000
        assert qmm.sim_instructions == 15_000
        assert spec_w.warmup_instructions == 10_000
        # base_config keeps the nominal window (simulate_mix halves per core)
        assert spec.base_config().warmup_instructions == 10_000

    def test_iso_storage_flows_to_prefetcher(self):
        spec = RunSpec(policy="iso")
        config = spec.config_for(by_name("astar"))
        assert config.prefetcher_extra_storage == ISO_STORAGE_BYTES

    def test_non_iso_no_extra_storage(self):
        config = RunSpec(policy="dripper").config_for(by_name("astar"))
        assert config.prefetcher_extra_storage == 0

    def test_native_boundary_flag_wraps_factory(self):
        spec = RunSpec(policy="dripper", filter_at_native_boundary=True)
        policy = spec.config_for(by_name("astar")).policy_factory()
        assert isinstance(policy, PerceptronFilter)
        assert policy.filter_at_native_boundary is True


class TestRunOne:
    def test_runs_quickly_scaled(self):
        spec = RunSpec(warmup_instructions=1_000, sim_instructions=3_000)
        result = run_many([by_name("hmmer")], spec)[0]
        assert result.instructions >= 3_000
