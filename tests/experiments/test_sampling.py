"""Phase-sampled simulation: profiling, clustering, stitched runs, rebuild."""

import numpy as np
import pytest

from repro.cpu.simulator import SimConfig, simulate
from repro.experiments.parallel import cell_fingerprint, cell_for
from repro.experiments.runner import RunSpec, policy_factory, run_many
from repro.experiments.sampling import (
    SIGNATURE_FEATURES,
    PhasePlan,
    SamplingConfig,
    _kmeans,
    _measured_bounds,
    plan_phases,
    signatures,
    simulate_sampled,
)
from repro.obs.metrics import get_metrics
from repro.validate import result_diff
from repro.workloads.packed import get_packed
from repro.workloads.registry import by_name

WARM, SIM = 8_000, 60_000
TOY = SamplingConfig(intervals=16, phases=4, warmup_fraction=0.5)


def _spec(**overrides) -> RunSpec:
    base = dict(warmup_instructions=WARM, sim_instructions=SIM,
                policy="dripper", packed=True, sampling=TOY)
    base.update(overrides)
    return RunSpec(**base)


def _config(**overrides) -> SimConfig:
    base = dict(warmup_instructions=WARM, sim_instructions=SIM,
                policy_factory=policy_factory("dripper", "berti"),
                packed=True, sampling=TOY)
    base.update(overrides)
    return SimConfig(**base)


class TestSamplingConfig:
    def test_defaults_valid(self):
        cfg = SamplingConfig()
        assert cfg.intervals == 64 and cfg.phases == 8

    @pytest.mark.parametrize("kwargs", [
        dict(intervals=1),
        dict(phases=0),
        dict(warmup_fraction=-0.1),
        dict(warmup_fraction=5.0),
        dict(confidence=0.4),
        dict(confidence=1.0),
        dict(resamples=0),
        dict(max_rel_error=0.0),
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)


class TestSignatures:
    def test_shape_and_partition(self):
        packed = get_packed(by_name("mcf"), WARM, SIM)
        features, starts, ends, inst = signatures(packed, WARM, SIM, 16)
        assert features.shape == (len(starts), len(SIGNATURE_FEATURES))
        assert np.all(np.isfinite(features))
        # intervals tile the measured region exactly: contiguous in record
        # space and summing to the measured instruction span
        first, last = _measured_bounds(packed, WARM, SIM)
        assert starts[0] == first and ends[-1] == last
        assert np.all(starts[1:] == ends[:-1])
        cum = packed.index().cum
        measured = int(cum[last - 1]) - int(cum[first - 1])
        assert int(inst.sum()) == measured

    def test_window_too_large_raises(self):
        packed = get_packed(by_name("mcf"), WARM, SIM)
        with pytest.raises(ValueError, match="fewer than"):
            signatures(packed, WARM, 10 * SIM, 16)


class TestKmeans:
    def test_deterministic_and_dense(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(40, 5))
        a1, r1 = _kmeans(features, 4, seed=9)
        a2, r2 = _kmeans(features, 4, seed=9)
        assert np.array_equal(a1, a2) and r1 == r2
        # dense ids 0..k-1, every representative belongs to its cluster
        assert sorted(set(int(c) for c in a1)) == list(range(len(r1)))
        for c, rep in enumerate(r1):
            assert a1[rep] == c

    def test_collapses_identical_signatures(self):
        features = np.ones((10, 3))
        assignment, reps = _kmeans(features, 4, seed=0)
        assert len(reps) == 1 and np.all(assignment == 0)


class TestPlanPhases:
    def test_plan_accounts_every_interval(self):
        packed = get_packed(by_name("mcf"), WARM, SIM)
        plan = plan_phases(packed, WARM, SIM, TOY)
        assert isinstance(plan, PhasePlan)
        assert 1 <= len(plan.phases) <= TOY.phases
        assert len(plan.assignment) == plan.n_intervals
        covered = sorted(i for p in plan.phases for i in p.members)
        assert covered == list(range(plan.n_intervals))
        assert sum(p.instructions for p in plan.phases) == plan.total_instructions
        assert 0 < plan.simulated_instructions() < plan.total_instructions

    def test_same_seed_same_plan(self):
        packed = get_packed(by_name("mcf"), WARM, SIM)
        assert plan_phases(packed, WARM, SIM, TOY) == \
            plan_phases(packed, WARM, SIM, TOY)


class TestSimulateSampled:
    def test_deterministic_per_seed(self):
        wl = by_name("mcf")
        r1 = simulate(wl, _config())
        r2 = simulate(wl, _config())
        assert result_diff(r1, r2) == {}

    def test_result_carries_sampling_metadata(self):
        result = simulate(by_name("mcf"), _config())
        assert result.sampled_intervals == TOY.intervals
        assert 1 <= result.sampled_phases <= TOY.phases
        assert result.ipc_ci_lo <= result.ipc <= result.ipc_ci_hi
        assert result.ipc_ci_lo < result.ipc_ci_hi

    def test_tracks_full_run(self):
        wl = by_name("mcf")
        full = simulate(wl, _config(sampling=None))
        sampled = simulate(wl, _config())
        assert sampled.ipc == pytest.approx(full.ipc, rel=0.10)
        assert sampled.instructions == pytest.approx(full.instructions, rel=0.01)

    def test_increments_sampled_drive_counter(self):
        counter = get_metrics().counter("sim.drives", "")
        before = counter.value(mode="sampled")
        simulate(by_name("mcf"), _config())
        assert counter.value(mode="sampled") == before + 1

    def test_requires_sampling_config(self):
        with pytest.raises(ValueError, match="config.sampling"):
            simulate_sampled(by_name("mcf"), _config(sampling=None))

    def test_runspec_round_trip(self):
        result = run_many([by_name("mcf")], _spec())[0]
        assert result.sampled_intervals == TOY.intervals


class TestFingerprint:
    def test_sampling_enters_fingerprint(self):
        wl = by_name("mcf")
        plain = cell_fingerprint(cell_for(wl, _spec(sampling=None)))
        sampled = cell_fingerprint(cell_for(wl, _spec()))
        other = cell_fingerprint(cell_for(wl, _spec(
            sampling=SamplingConfig(intervals=16, phases=4,
                                    warmup_fraction=0.5, seed=1))))
        assert plain != sampled
        assert sampled != other
        assert sampled == cell_fingerprint(cell_for(wl, _spec()))

    def test_unsampled_fingerprint_unchanged_by_field(self):
        # sampling=None must not perturb pre-existing cache keys: the dump
        # drops the key entirely rather than serialising a null
        wl = by_name("mcf")
        spec = _spec(sampling=None)
        a = cell_fingerprint(cell_for(wl, spec))
        b = cell_fingerprint(cell_for(wl, RunSpec(
            warmup_instructions=WARM, sim_instructions=SIM,
            policy="dripper", packed=True)))
        assert a == b
