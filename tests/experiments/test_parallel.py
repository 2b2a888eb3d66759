"""Parallel/cached grid execution: serial equivalence, caching, journaling."""

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    Cell,
    _affine_groups,
    cell_for,
    chunk_cost,
    grid_session,
    policy_cost_weight,
    run_cells,
)
from repro.experiments.runner import RunSpec, run_many, run_policies
from repro.experiments.sweep import sweep_epoch_length, sweep_parameter
from repro.obs import Observability, RunJournal, read_journal
from repro.obs.metrics import get_metrics
from repro.workloads import by_name

FAST = RunSpec(warmup_instructions=1_000, sim_instructions=3_000)
GRID_WORKLOADS = ("astar", "hmmer", "mcf", "lbm")


def _workloads(names=GRID_WORKLOADS):
    return [by_name(name) for name in names]


class _NameOnly:
    """A registry workload behind a picklable wrapper with no seed or path."""

    def __init__(self, name: str):
        self.name = name
        self.suite = by_name(name).suite

    def generate(self):
        return by_name(self.name).generate()


class TestCellBasics:
    def test_cell_for_registry_workload_carries_name_only(self):
        cell = cell_for(by_name("astar"), FAST)
        assert cell.workload == "astar"
        assert cell.workload_obj is None
        assert cell.resolve_workload() is by_name("astar")

    def test_cell_for_foreign_workload_carries_object(self):
        class Custom:
            name = "astar"  # shadows a registry name but is a different object

            def generate(self):  # pragma: no cover - never run
                return iter(())

        custom = Custom()
        cell = cell_for(custom, FAST)
        assert cell.workload_obj is custom
        assert cell.resolve_workload() is custom

    def test_cells_are_picklable(self):
        import pickle

        cell = cell_for(by_name("astar"), FAST, policy="permit",
                        context={"sweep": {"value": 1}})
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell

    def test_run_cells_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([cell_for(by_name("astar"), FAST)], jobs=0)


class TestSerialParallelEquivalence:
    def test_policy_grid_identical_under_jobs4(self):
        # the acceptance grid: 2 policies x 4 workloads
        workloads = _workloads()
        serial = run_policies(workloads, ["discard", "permit"], base_spec=FAST)
        parallel = run_policies(workloads, ["discard", "permit"], base_spec=FAST, jobs=4)
        assert parallel == serial  # SimResult dataclass equality, field-exact

    def test_run_many_order_preserved(self):
        workloads = _workloads()
        serial = run_many(workloads, FAST)
        parallel = run_many(workloads, FAST, jobs=3)
        assert parallel == serial
        assert [r.workload for r in parallel] == list(GRID_WORKLOADS)

    def test_progress_fires_per_cell(self):
        seen = []
        run_many(_workloads(("astar", "hmmer")), FAST, jobs=2,
                 progress=lambda name, result: seen.append(name))
        assert sorted(seen) == ["astar", "hmmer"]

    def test_sweep_parameter_identical_under_jobs(self):
        from repro.experiments.sweep import dram_latency_transform

        workloads = _workloads(("astar", "hmmer"))
        serial = sweep_parameter(workloads, dram_latency_transform, (100, 300),
                                 policies=("permit",), base_spec=FAST)
        parallel = sweep_parameter(workloads, dram_latency_transform, (100, 300),
                                   policies=("permit",), base_spec=FAST, jobs=2)
        assert parallel == serial

    def test_parallel_rejects_in_process_instruments(self):
        from repro.obs import Probe

        obs = Observability(probe=Probe())
        with pytest.raises(ValueError, match="in-process"):
            run_cells([cell_for(w, FAST) for w in _workloads()], jobs=2, obs=obs)


class TestCacheBehaviour:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        workloads = _workloads(("astar", "hmmer"))
        cache = ResultCache(tmp_path)
        first = run_policies(workloads, ["discard", "permit"], base_spec=FAST, cache=cache)
        assert cache.stats == {"hits": 0, "misses": 4, "stores": 4}
        second = run_policies(workloads, ["discard", "permit"], base_spec=FAST, cache=cache)
        assert second == first
        assert cache.stats == {"hits": 4, "misses": 4, "stores": 4}

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_many(_workloads(("astar",)), FAST, cache=cache)
        assert cache.stats["stores"] == 1
        from dataclasses import replace

        run_many(_workloads(("astar",)), replace(FAST, sim_instructions=4_000), cache=cache)
        assert cache.stats["stores"] == 2  # different fingerprint -> re-simulated

    def test_cache_shared_across_parallel_and_serial(self, tmp_path):
        workloads = _workloads(("astar", "hmmer"))
        cache = ResultCache(tmp_path)
        parallel = run_many(workloads, FAST, jobs=2, cache=cache)
        serial = run_many(workloads, FAST, cache=ResultCache(tmp_path))
        assert serial == parallel


class TestSharedBaseline:
    def test_epoch_sweep_simulates_discard_once(self, tmp_path):
        # the discard baseline is epoch-independent: one cell in the batch
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cache = ResultCache(tmp_path / "cache")
        sweep_epoch_length(_workloads(("hmmer",)), (512, 1024, 4096),
                           base_spec=FAST, obs=obs, cache=cache)
        obs.close()
        records = read_journal(journal)
        discard = [r for r in records if r["context"]["sweep"]["policy"] == "discard"]
        assert len(discard) == 1
        assert len(records) == 4  # 1 baseline + 3 epoch points
        assert cache.stats["stores"] == 4

    def test_value_invariant_sweep_simulates_discard_once(self, tmp_path):
        # a transform that leaves the baseline's config unchanged across >= 3
        # values collapses every policy to one simulation per workload
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cache = ResultCache(tmp_path / "cache")
        data = sweep_parameter(
            _workloads(("hmmer",)), lambda params, value: params, (1, 2, 3),
            policies=("permit",), base_spec=FAST, obs=obs, cache=cache,
        )
        obs.close()
        records = read_journal(journal)
        discard = [r for r in records if r["context"]["sweep"]["policy"] == "discard"]
        assert len(discard) == 1
        assert cache.stats["stores"] == 2  # discard once + permit once
        assert set(data) == {1, 2, 3}

    def test_repeated_sweep_is_free(self, tmp_path):
        from repro.experiments.sweep import dram_latency_transform

        cache = ResultCache(tmp_path)
        first = sweep_parameter(_workloads(("hmmer",)), dram_latency_transform,
                                (120, 240, 360), policies=("permit",),
                                base_spec=FAST, cache=cache)
        stores_after_first = cache.stats["stores"]
        again = sweep_parameter(_workloads(("hmmer",)), dram_latency_transform,
                                (120, 240, 360), policies=("permit",),
                                base_spec=FAST, cache=cache)
        assert again == first
        assert cache.stats["stores"] == stores_after_first  # nothing re-simulated


class TestMergedJournal:
    def test_jobs2_journal_is_complete(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        workloads = _workloads(("astar", "hmmer"))
        run_policies(workloads, ["discard", "permit"], base_spec=FAST, jobs=2, obs=obs)
        obs.close()
        records = read_journal(journal)
        assert len(records) == 4
        assert obs.runs == 4
        coords = {(r["workload"]["name"], r["context"]["spec"]["policy"]) for r in records}
        assert coords == {(w, p) for w in ("astar", "hmmer") for p in ("discard", "permit")}
        # full config + params survived the shard round-trip
        assert all("stlb" in r["config"]["params"] for r in records)

    def test_scoped_context_does_not_leak(self, tmp_path):
        # regression: a sweep used to leave context['sweep'] on the bundle,
        # mislabelling every later run's journal record
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        sweep_epoch_length(_workloads(("hmmer",)), (512,), base_spec=FAST, obs=obs)
        assert obs.context == {}
        from repro.experiments.runner import run_one

        run_one(by_name("astar"), FAST, obs=obs)
        assert obs.context == {}
        obs.close()
        last = read_journal(journal)[-1]
        assert last["workload"]["name"] == "astar"
        assert "sweep" not in last["context"]


class TestAffineScheduling:
    def test_groups_by_workload_and_window(self):
        cells = [
            cell_for(by_name(w), FAST, policy=p)
            for p in ("discard", "permit")
            for w in ("astar", "hmmer")
        ]
        groups = _affine_groups(cells, range(len(cells)))
        assert [(idx, w.name) for idx, w, _, _ in groups] == [
            ([0, 2], "astar"), ([1, 3], "hmmer"),
        ]
        assert all((warm, sim) == (1_000, 3_000) for _, _, warm, sim in groups)

    def test_window_splits_groups(self):
        from dataclasses import replace

        longer = replace(FAST, sim_instructions=4_000)
        cells = [cell_for(by_name("astar"), spec) for spec in (FAST, longer, FAST)]
        groups = _affine_groups(cells, range(len(cells)))
        assert [idx for idx, _, _, _ in groups] == [[0, 2], [1]]


class TestCostAwareScheduling:
    def test_policy_weights_ordered_by_heaviness(self):
        assert policy_cost_weight("discard") == 1.0
        assert policy_cost_weight("DRIPPER") > policy_cost_weight("permit") > \
            policy_cost_weight("discard")
        assert policy_cost_weight("ppf") > policy_cost_weight("dripper")
        assert policy_cost_weight("never-heard-of-it") == 1.0

    def test_chunk_cost_scales_with_records_and_policy(self):
        cells = [cell_for(by_name("astar"), FAST, policy=p)
                 for p in ("discard", "dripper")]
        cheap = chunk_cost(cells, [0], records=1_000)
        heavy_policy = chunk_cost(cells, [1], records=1_000)
        long_pack = chunk_cost(cells, [0], records=10_000)
        both_cells = chunk_cost(cells, [0, 1], records=1_000)
        assert cheap == 1_000.0
        assert heavy_policy > cheap
        assert long_pack == 10 * cheap
        assert both_cells == pytest.approx(cheap + heavy_policy)

    def test_skewed_grid_parallel_matches_serial(self):
        # one workload has a 5x window and the heavyweight policy — the
        # costliest-first dispatch must not perturb results or their order
        from dataclasses import replace

        long_spec = replace(FAST, sim_instructions=15_000)
        cells = [cell_for(by_name("hmmer"), FAST, policy=p)
                 for p in ("discard", "permit")]
        cells += [cell_for(by_name("astar"), long_spec, policy="dripper")]
        cells += [cell_for(by_name("mcf"), FAST, policy="discard")]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert [r.__dict__ for r in parallel] == [r.__dict__ for r in serial]


class TestSharedMemoryGrid:
    def test_shm_grid_matches_serial_without_leaks(self):
        from repro.workloads.shm import live_segments

        cells = [
            cell_for(by_name(w), FAST, policy=p)
            for w in ("astar", "hmmer")
            for p in ("discard", "dripper")
        ]
        serial = run_cells(cells, jobs=1)
        shared = run_cells(cells, jobs=2)
        assert shared == serial
        assert live_segments() == []

    def test_session_reuses_store_across_batches(self):
        from repro.workloads.shm import live_segments

        cells = [cell_for(by_name("astar"), FAST, policy=p)
                 for p in ("discard", "permit")]
        serial = run_cells(cells, jobs=1)
        with grid_session(2) as session:
            first = run_cells(cells, jobs=2)
            second = run_cells(cells, jobs=2)
            assert len(session.store.handles()) == 1  # published once
        assert first == serial and second == serial
        assert live_segments() == []

    def test_unpublishable_workload_packs_in_workers(self):
        # no seed or path: the store cannot publish it, so each worker packs
        # its own copy — and must still match the serial run
        cells = [cell_for(_NameOnly(w), FAST) for w in ("astar", "hmmer")]
        published = get_metrics().counter("shm.published")
        before = published.total()
        shared = run_cells(cells, jobs=2)
        assert published.total() == before
        assert shared == run_cells(cells, jobs=1)

    def test_workers_run_the_published_packs(self):
        # a batch must publish each pack at the window its cores run (QMM
        # cores run half-length windows); a wrong window is invisible in
        # the results because the workers would silently repack
        from repro.experiments.parallel import mix_cell_for, run_mix_cells
        from repro.workloads.packed import get_packed
        from repro.workloads.trace import trace_window

        workloads = _workloads(("qmm_int_13", "astar"))
        for workload in workloads:
            get_packed(workload, *trace_window(
                workload, FAST.warmup_instructions, FAST.sim_instructions))
        registry = get_metrics()
        mark = registry.snapshot()
        run_cells([cell_for(w, FAST, policy=p) for w in workloads
                   for p in ("discard", "permit")], jobs=2)
        run_mix_cells([mix_cell_for(workloads, FAST, policy=p, mix_id=0)
                       for p in ("discard", "permit")], jobs=2)
        delta = registry.snapshot().delta(mark).counters

        def total(name):
            return sum(delta.get(name, {"series": {}})["series"].values())

        assert total("pack_cache.misses") == 0
        assert total("pack_cache.shared_hits") > 0

    def test_run_policies_shm_matches_serial(self):
        workloads = _workloads(("astar", "hmmer"))
        serial = run_policies(workloads, ["discard", "permit"], base_spec=FAST)
        shared = run_policies(workloads, ["discard", "permit"], base_spec=FAST,
                              jobs=2)
        assert shared == serial

    def test_persistent_session_journal_not_double_counted(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cells = [cell_for(by_name("astar"), FAST, policy=p)
                 for p in ("discard", "permit")]
        with grid_session(2):
            run_cells(cells, jobs=2, obs=obs)
            run_cells(cells, jobs=2, obs=obs)
        obs.close()
        assert len(read_journal(journal)) == 4  # 2 batches x 2 cells, once each
        assert obs.runs == 4


class TestRunPoliciesPrefetcherFix:
    def test_base_spec_prefetcher_preserved(self):
        # regression: the default prefetcher kwarg used to clobber base_spec
        spec = RunSpec(prefetcher="bop", warmup_instructions=1_000, sim_instructions=2_000)
        out = run_policies(_workloads(("astar",)), ["discard"], base_spec=spec)
        assert out["discard"][0].prefetcher == "bop"

    def test_explicit_prefetcher_still_overrides(self):
        spec = RunSpec(prefetcher="bop", warmup_instructions=1_000, sim_instructions=2_000)
        out = run_policies(_workloads(("astar",)), ["discard"], prefetcher="berti",
                           base_spec=spec)
        assert out["discard"][0].prefetcher == "berti"


class TestGridTelemetry:
    def test_worker_metric_deltas_merge_into_parent(self):
        from repro.obs.metrics import get_metrics

        cells = [cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))] * 2
        grid_cells = get_metrics().counter("grid.cells")
        before = {key: v for key, v in grid_cells._values.items()}
        run_cells(cells, jobs=2)
        landed = {
            key: v - before.get(key, 0)
            for key, v in grid_cells._values.items()
            if v != before.get(key, 0)
        }
        assert sum(landed.values()) == len(cells)
        # the cells ran in worker processes: their pids, not the parent's
        import os

        parent = (("pid", str(os.getpid())),)
        assert parent not in landed
        assert len(landed) >= 1  # at least one worker pid lane

    def test_worker_spans_absorbed_with_worker_pids(self, tmp_path):
        import json
        import os

        from repro.obs.tracing import Tracer, install_tracer

        tracer = Tracer(role="parent")
        previous = install_tracer(tracer)
        try:
            cells = [cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))]
            run_cells(cells, jobs=2)
        finally:
            install_tracer(previous)
        out = tmp_path / "trace.json"
        count = tracer.write_chrome_trace(out)
        assert count >= len(cells)  # at least one span per cell
        doc = json.loads(out.read_text())
        span_pids = {e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert os.getpid() not in span_pids or len(span_pids) > 1
        assert any(pid != os.getpid() for pid in span_pids)
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert "cell" in names and "drive" in names

    def test_telemetry_off_results_bit_identical(self):
        from repro.obs.tracing import Tracer, install_tracer

        cells = [cell_for(w, FAST) for w in _workloads(("astar",))]
        plain = run_cells(cells, jobs=1)
        tracer = Tracer(role="parent")
        previous = install_tracer(tracer)
        try:
            traced = run_cells(cells, jobs=1)
        finally:
            install_tracer(previous)
        assert plain == traced  # dataclass equality, field-exact

    def test_parallel_identical_with_and_without_tracer(self, tmp_path):
        from repro.obs.tracing import Tracer, install_tracer

        cells = [cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))]
        plain = run_cells(cells, jobs=2)
        previous = install_tracer(Tracer(role="parent"))
        try:
            traced = run_cells(cells, jobs=2)
        finally:
            install_tracer(previous)
        assert plain == traced
