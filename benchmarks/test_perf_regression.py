"""Perf smoke: the packed fast path stays bit-identical and does not regress.

Result equality is asserted hard — the fast path's whole contract is that
``SimConfig(packed=True)`` changes wall time and nothing else.  The
generator legs below ask for ``packed=False`` explicitly: ``RunSpec``
defaults to the packed kernel.  Throughput is
advisory: a single CI run is far too noisy to gate a merge on the measured
ratio (see ``scripts/bench_hotloop.py`` for the careful methodology), so the
only hard floor here is a generous one that catches the fast path becoming
*slower* than the generator it replaces.  Phase-sampled simulation is the
one exception with a hard *accuracy* gate: its recorded ``BENCH_0008.json``
artifact must clear the ≥5x-at-≤2%-IPC-error acceptance bar, and the live
reduced-scale race bounds the reconstruction error hard while keeping the
wall-clock floor generous.
"""

from time import perf_counter

from repro.experiments import RunSpec, Scale
from repro.cpu.simulator import simulate
from repro.validate import result_diff
from repro.workloads import by_name, get_packed


def _best_of(n, fn):
    best = None
    value = None
    for _ in range(n):
        start = perf_counter()
        value = fn()
        elapsed = perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, value


class TestPackedFastPath:
    def run_cell(self, prefetcher, policy, warmup=8_000, sim=24_000):
        workload = by_name("astar")
        spec = RunSpec(prefetcher=prefetcher, policy=policy,
                       warmup_instructions=warmup, sim_instructions=sim, packed=False)
        config = spec.config_for(workload)
        packed_config = spec.config_for(workload)
        packed_config.packed = True
        get_packed(workload, warmup, sim)  # pre-pack (steady-state timing)
        t_gen, gen_result = _best_of(2, lambda: simulate(workload, config))
        t_packed, packed_result = _best_of(2, lambda: simulate(workload, packed_config))
        return t_gen, gen_result, t_packed, packed_result

    def test_default_cell_identical_and_not_slower(self):
        t_gen, gen_result, t_packed, packed_result = self.run_cell("berti", "discard")
        assert result_diff(gen_result, packed_result) == {}
        # advisory floor only: the fast path must at minimum not lose to the
        # generator path it bypasses (true speedup is ~1.5x+, but CI noise
        # makes a tight ratio assertion flaky)
        assert t_packed < t_gen * 1.10

    def test_dripper_cell_identical(self):
        _, gen_result, _, packed_result = self.run_cell("ipcp", "dripper")
        assert result_diff(gen_result, packed_result) == {}


class TestTelemetryOffOverhead:
    """The telemetry layer (PR 6) must cost nothing when it is not enabled.

    ``BENCH_0005.json`` captured the packed-vs-generator speedup per cell
    before the metrics/tracing instrumentation landed.  With no tracer
    installed and nobody reading the registry, the packed fast path should
    still clear a generous fraction of that recorded speedup — the
    instrumentation sits at event granularity (per drive, per pack), so any
    per-record cost showing up here means a hot loop grew an observation.
    """

    # a single CI run is noisy; demand only half the recorded speedup, and
    # never below break-even
    MARGIN = 0.5

    def _baseline(self):
        import json
        from pathlib import Path

        doc = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_0005.json").read_text())
        return {(c["prefetcher"], c["policy"]): c["speedup"] for c in doc["cells"]}

    def test_no_tracer_is_installed_by_default(self):
        from repro.obs.tracing import current_tracer

        assert current_tracer() is None

    def test_packed_speedup_holds_without_telemetry(self):
        from repro.obs.tracing import current_tracer

        assert current_tracer() is None  # telemetry off: the path under test
        baseline = self._baseline()
        cell = TestPackedFastPath()
        for prefetcher, policy in (("berti", "discard"), ("berti", "dripper")):
            t_gen, gen_result, t_packed, packed_result = cell.run_cell(
                prefetcher, policy)
            assert result_diff(gen_result, packed_result) == {}
            recorded = baseline[(prefetcher, policy)]
            floor = max(1.0, recorded * self.MARGIN)
            measured = t_gen / t_packed
            assert measured > floor, (
                f"{prefetcher}/{policy}: packed speedup {measured:.2f}x fell "
                f"below {floor:.2f}x (BENCH_0005 recorded {recorded:.2f}x) — "
                "telemetry-off overhead on the fast path?")


class TestMixThroughput:
    """The mix-affine grid (PR 9) must stay exact and stay fast.

    ``BENCH_0007.json`` records the speedup of whole mixes dispatched to
    workers on packed cores over serial generator stepping (the historical
    ``simulate_mix`` path) at jobs=2.  Per-core equality is the hard
    contract; the throughput floor is the same generous half-of-recorded
    used above — enough to catch the packed mix loop or the mix scheduler
    regressing to serial-generator speed without gating merges on CI noise.
    """

    MARGIN = 0.5

    def _baseline(self):
        import json
        from pathlib import Path

        doc = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_0007.json").read_text())
        return doc["mix"]

    def test_mix_grid_identical_and_fast(self):
        from repro.experiments.parallel import (
            grid_session,
            mix_cell_for,
            run_mix_cells,
        )
        from repro.workloads import make_mixes

        recorded = self._baseline()
        spec = RunSpec(prefetcher=recorded["prefetcher"],
                       warmup_instructions=2_000, sim_instructions=6_000, packed=False)
        mixes = make_mixes(2, 4, seed=42)
        cells = [mix_cell_for(mix, spec, policy=policy, mix_id=i)
                 for i, mix in enumerate(mixes)
                 for policy in ("discard", "dripper")]

        def packed_grid():
            with grid_session(2):
                return run_mix_cells(cells, jobs=2)

        t_serial, serial = _best_of(2, lambda: run_mix_cells(cells, jobs=1))
        t_packed, packed = _best_of(2, packed_grid)
        for want, got in zip(serial, packed):
            for a, b in zip(want.results, got.results):
                assert result_diff(a, b) == {}
        floor = max(1.0, recorded["speedup"] * self.MARGIN)
        measured = t_serial / t_packed
        assert measured > floor, (
            f"mix grid speedup {measured:.2f}x fell below {floor:.2f}x "
            f"(BENCH_0007 recorded {recorded['speedup']:.2f}x at "
            f"jobs={recorded['jobs']}) — packed mix loop or mix-affine "
            "scheduling regressed?")


class TestSampledSimulation:
    """Phase-sampled simulation (PR 10) must stay fast *and* stay honest.

    ``BENCH_0008.json`` records the sampled-vs-full race at paper-like scale
    (200k+2M instructions): the recorded artifact itself is gated hard —
    ≥5x wall-clock at ≤2% relative IPC error is the feature's acceptance
    bar, so a regenerated benchmark that misses it should fail CI.  The live
    leg re-races a reduced-scale cell: the error bound stays hard (accuracy
    does not get noisier on a loaded host), while the speedup floor is the
    usual generous fraction of what the reduced scale can deliver.
    """

    MARGIN = 0.5

    def _baseline(self):
        import json
        from pathlib import Path

        doc = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_0008.json").read_text())
        return doc["sampled"]

    def test_recorded_artifact_meets_acceptance(self):
        recorded = self._baseline()
        assert recorded["sim_instructions"] >= 2_000_000
        assert recorded["speedup"] >= 5.0, (
            f"BENCH_0008 records only {recorded['speedup']:.2f}x — the "
            "sampled path no longer clears the 5x acceptance bar")
        assert recorded["rel_error"] <= 0.02, (
            f"BENCH_0008 records {recorded['rel_error']:.2%} IPC error — "
            "over the 2% acceptance bound")
        # the reconstruction simulates a small fraction of the trace; that
        # ratio is where the speedup comes from
        assert recorded["simulated_instructions"] * 3 < recorded["total_instructions"]

    def test_reduced_scale_sampled_fast_and_accurate(self):
        from repro.experiments.sampling import SamplingConfig

        recorded = self._baseline()
        workload = by_name(recorded["workload"])
        warmup, sim = 8_000, 200_000
        spec = RunSpec(prefetcher=recorded["prefetcher"],
                       policy=recorded["policy"],
                       warmup_instructions=warmup, sim_instructions=sim,
                       packed=True)
        full_config = spec.config_for(workload)
        sampled_config = spec.config_for(workload)
        sampled_config.sampling = SamplingConfig(
            intervals=32, phases=6,
            warmup_fraction=recorded["warmup_fraction"])
        get_packed(workload, warmup, sim)  # pre-pack (steady-state timing)
        t_full, full_result = _best_of(2, lambda: simulate(workload, full_config))
        t_sampled, sampled_result = _best_of(
            2, lambda: simulate(workload, sampled_config))
        rel_error = abs(sampled_result.ipc - full_result.ipc) / full_result.ipc
        assert rel_error <= 0.05, (
            f"sampled IPC {sampled_result.ipc:.4f} is {rel_error:.2%} from "
            f"the full run's {full_result.ipc:.4f} at reduced scale — "
            "reconstruction bias crept in")
        measured = t_full / t_sampled
        assert measured > 1.5, (
            f"sampled speedup {measured:.2f}x at reduced scale — profiling/"
            "clustering overhead is eating the skipped-span savings "
            f"(BENCH_0008 recorded {recorded['speedup']:.2f}x at full scale)")


class TestExhibitDefaultKernel:
    """The paper's exhibits run on the packed fused kernel by default.

    ``RunSpec`` (and so every figure function) defaults to the packed fused
    kernel, which replays each pack's recorded prefetch-candidate stream for
    Berti/IPCP/BOP instead of calling the prefetcher per cell.  Figure 9 at a
    small scale must come out identical to the generator loop (hard), and
    should not be slower (advisory floor, as above).  ``BENCH_0009.json``
    records the benchmark's ``exhibits`` race (alternating parent/change
    pairs on seeds 1 and 29); the recorded artifact is gated on the claim
    rule it was made under.
    """

    SCALE = dict(n_workloads=4, warmup_instructions=1_000, sim_instructions=3_000, seed=1)

    def test_fig9_default_identical_to_generator(self):
        from repro.experiments.figures import fig9_scheme_comparison
        from repro.obs.metrics import get_metrics

        class GeneratorScale(Scale):
            def spec(self, **kwargs):
                return super().spec(packed=False, **kwargs)

        drives = get_metrics().counter("sim.drives")
        fig9_scheme_comparison(Scale(**self.SCALE))  # warm packs and streams
        before = drives.value(mode="generator")
        t_default, default = _best_of(
            2, lambda: fig9_scheme_comparison(Scale(**self.SCALE)))
        assert drives.value(mode="generator") == before
        t_gen, generator = _best_of(
            2, lambda: fig9_scheme_comparison(GeneratorScale(**self.SCALE)))
        assert default == generator
        assert t_default < t_gen * 1.10

    def test_recorded_artifact_meets_claim(self):
        import json
        from pathlib import Path

        doc = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_0009.json").read_text())
        assert set(doc["seeds"]) == {"1", "29"}
        for seed, entry in doc["seeds"].items():
            pairs = len(entry["pairs"])
            assert pairs >= 10
            assert entry["wins"] >= 0.9 * pairs, (
                f"seed {seed}: the default kernel won only {entry['wins']}/{pairs} pairs")
            assert entry["median_gap"] > entry["parent_iqr"], (
                f"seed {seed}: median gap {entry['median_gap']:.3f}s is inside the "
                f"parent's quartile spread {entry['parent_iqr']:.3f}s")
        traced = doc["traced"]
        assert traced["change"]["cpu.drives.generator"] == 0
        assert traced["change"]["prefetch.on_access_calls"] == 0
