"""Phase-sampled simulation: profiling, clustering, stitched runs, rebuild."""

import hashlib
import math
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

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
from repro.workloads.packed import PackedTrace, get_packed
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
        assert len(features) == len(starts)
        assert all(len(row) == len(SIGNATURE_FEATURES) for row in features)
        assert all(math.isfinite(x) for row in features for x in row)
        # intervals tile the measured region exactly: contiguous in record
        # space and summing to the measured instruction span
        first, last = _measured_bounds(packed, WARM, SIM)
        assert starts[0] == first and ends[-1] == last
        assert starts[1:] == ends[:-1]
        cum = packed.index().cum
        measured = cum[last - 1] - cum[first - 1]
        assert sum(inst) == measured

    def test_window_too_large_raises(self):
        packed = get_packed(by_name("mcf"), WARM, SIM)
        with pytest.raises(ValueError, match="fewer than"):
            signatures(packed, WARM, 10 * SIM, 16)

    def test_flag_bits_above_the_low_byte_are_ignored(self):
        # pack flags are u16 and a trace file may set undefined high bits;
        # every profile mask reads only the defined (low-byte) flag bits
        packed = get_packed(by_name("astar"), WARM, SIM)
        wide = PackedTrace(
            packed.name, packed.suite, packed.pcs, packed.vaddrs,
            array("H", (f | 1 << 9 for f in packed.flags)), packed.gaps,
            warmup=WARM, sim=SIM, instructions=packed.instructions,
            complete=True)
        assert signatures(wide, WARM, SIM, 16) == signatures(packed, WARM, SIM, 16)
        assert plan_phases(wide, WARM, SIM, TOY) == plan_phases(packed, WARM, SIM, TOY)


class TestKmeans:
    def test_deterministic_and_dense(self):
        rng = random.Random(3)
        features = [[rng.gauss(0.0, 1.0) for _ in range(5)] for _ in range(40)]
        a1, r1 = _kmeans(features, 4, seed=9)
        a2, r2 = _kmeans(features, 4, seed=9)
        assert a1 == a2 and r1 == r2
        # dense ids 0..k-1, every representative belongs to its cluster
        assert sorted(set(a1)) == list(range(len(r1)))
        for c, rep in enumerate(r1):
            assert a1[rep] == c

    def test_collapses_identical_signatures(self):
        features = [[1.0] * 3 for _ in range(10)]
        assignment, reps = _kmeans(features, 4, seed=0)
        assert len(reps) == 1 and all(a == 0 for a in assignment)


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

    # plans recorded from the original vectorised profile: (workload, warm-up,
    # sim, config) -> (sha256 prefix of repr(starts), assignment digits,
    # representatives); a change in float summation order shows up here
    GOLDEN = [
        ("astar", 10_000, 60_000, SamplingConfig(seed=0), "8017e1ab9947d34f",
         "0123330141132235667577556555012330401232220200130330357767577755",
         [44, 36, 43, 11, 8, 26, 56, 54]),
        ("astar", 10_000, 60_000, SamplingConfig(seed=1), "8017e1ab9947d34f",
         "0123330141132235667577556555012330401232220200130330357767577755",
         [44, 36, 43, 11, 8, 26, 56, 54]),
        ("omnetpp", 10_000, 60_000, SamplingConfig(seed=0), "0686ee86df63266c",
         "0123342033025236644323433303222423731451343274224236335703125342",
         [10, 1, 13, 42, 17, 12, 15, 44]),
        ("omnetpp", 10_000, 60_000, SamplingConfig(seed=1), "0686ee86df63266c",
         "0122134021023425633342312201044322711331232273243425225701143232",
         [56, 4, 63, 17, 59, 15, 16, 44]),
        ("mcf", WARM, SIM, TOY, "8ea46392cc59054d", "0110233021022212",
         [7, 14, 12, 6]),
    ]

    @pytest.mark.parametrize("name,warm,sim,sampling,starts,assignment,reps", GOLDEN)
    def test_matches_recorded_plan(self, name, warm, sim, sampling, starts,
                                   assignment, reps):
        plan = plan_phases(get_packed(by_name(name), warm, sim), warm, sim, sampling)
        assert hashlib.sha256(repr(plan.starts).encode()).hexdigest()[:16] == starts
        assert "".join(map(str, plan.assignment)) == assignment
        assert [p.representative for p in plan.phases] == reps


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

    def test_runs_without_numpy(self):
        # the package has no runtime dependencies: a sampled run in a fresh
        # interpreter leaves numpy unimported
        code = (
            "import sys\n"
            "from repro.cpu.simulator import SimConfig, simulate\n"
            "from repro.experiments.runner import policy_factory\n"
            "from repro.experiments.sampling import SamplingConfig\n"
            "from repro.workloads.registry import by_name\n"
            "r = simulate(by_name('mcf'), SimConfig(\n"
            "    warmup_instructions=2000, sim_instructions=12000, packed=True,\n"
            "    policy_factory=policy_factory('dripper', 'berti'),\n"
            "    sampling=SamplingConfig(intervals=8, phases=2)))\n"
            "assert r.sampled_intervals == 8\n"
            "print('numpy' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

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
