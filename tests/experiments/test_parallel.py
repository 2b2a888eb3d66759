"""Parallel/cached grid execution: serial equivalence, caching, journaling."""

import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    Cell,
    _cell_groups,
    _run_on_pool,
    cell_for,
    chunk_cost,
    grid_session,
    policy_cost_weight,
    run_cells,
)
from repro.experiments.runner import RunSpec, run_many, run_policies
from repro.experiments.sweep import sweep_epoch_length, sweep_parameter
from repro.obs import Observability, RunJournal, read_journal
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


def _children() -> list[int]:
    """Pids whose parent is this process, read from ``/proc/<pid>/stat``."""
    proc = Path("/proc")
    if not (proc / "self" / "stat").exists():
        pytest.skip("needs a /proc filesystem")
    me = os.getpid()
    children = []
    for stat in proc.glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process exited mid-scan
            continue
        # fields after the parenthesised command name: state, ppid, ...
        if int(text[text.rindex(")") + 2:].split()[1]) == me:
            children.append(int(stat.parent.name))
    return children


def _mark_chunk(markers, obs=None):
    """A pool ``execute`` that marks each chunk it runs; chunk 0 raises."""
    for marker in markers:
        Path(marker).touch()
        if marker.endswith("-0"):
            raise RuntimeError("chunk 0 failed")
        time.sleep(0.2)
    return [None] * len(markers)


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

        cell = cell_for(by_name("astar"), replace(FAST, policy="permit"),
                        context={"sweep": {"value": 1}})
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        assert clone.policy == "permit"

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
        # full config + params survived the trip home from the workers
        assert all("stlb" in r["config"]["params"] for r in records)

    def test_pooled_batch_makes_no_temp_directory(self, tmp_path, monkeypatch):
        import tempfile

        from repro.obs.tracing import Tracer, install_tracer

        made = []

        def mkdtemp(*args, **kwargs):
            made.append((args, kwargs))
            return str(tmp_path)

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        obs = Observability(journal=RunJournal(tmp_path / "runs.jsonl"))
        previous = install_tracer(Tracer(role="parent"))
        try:
            run_cells([cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))],
                      jobs=2, obs=obs)
        finally:
            install_tracer(previous)
        obs.close()
        assert obs.runs == 2
        assert made == []

    def test_scoped_context_does_not_leak(self, tmp_path):
        # regression: a sweep used to leave context['sweep'] on the bundle,
        # mislabelling every later run's journal record
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        sweep_epoch_length(_workloads(("hmmer",)), (512,), base_spec=FAST, obs=obs)
        assert obs.context == {}
        run_many([by_name("astar")], FAST, obs=obs)
        assert obs.context == {}
        obs.close()
        last = read_journal(journal)[-1]
        assert last["workload"]["name"] == "astar"
        assert "sweep" not in last["context"]


class TestAffineScheduling:
    def test_groups_by_workload_and_window(self):
        cells = [
            cell_for(by_name(w), replace(FAST, policy=p))
            for p in ("discard", "permit")
            for w in ("astar", "hmmer")
        ]
        groups = _cell_groups(cells, range(len(cells)))
        assert [idx for idx, _, _ in groups] == [[0, 2], [1, 3]]
        assert all((warm, sim) == (1_000, 3_000) for _, warm, sim in groups)

    def test_window_splits_groups(self):
        longer = replace(FAST, sim_instructions=4_000)
        cells = [cell_for(by_name("astar"), spec) for spec in (FAST, longer, FAST)]
        groups = _cell_groups(cells, range(len(cells)))
        assert [(idx, sim) for idx, _, sim in groups] == [([0, 2], 3_000), ([1], 4_000)]


class TestCostAwareScheduling:
    def test_policy_weights_ordered_by_heaviness(self):
        assert policy_cost_weight("discard") == 1.0
        assert policy_cost_weight("DRIPPER") > policy_cost_weight("permit") > \
            policy_cost_weight("discard")
        assert policy_cost_weight("ppf") > policy_cost_weight("dripper")
        assert policy_cost_weight("never-heard-of-it") == 1.0

    def test_chunk_cost_scales_with_records_and_policy(self):
        cells = [cell_for(by_name("astar"), replace(FAST, policy=p))
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
        long_spec = replace(FAST, sim_instructions=15_000)
        cells = [cell_for(by_name("hmmer"), replace(FAST, policy=p))
                 for p in ("discard", "permit")]
        cells += [cell_for(by_name("astar"), replace(long_spec, policy="dripper"))]
        cells += [cell_for(by_name("mcf"), replace(FAST, policy="discard"))]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert [r.__dict__ for r in parallel] == [r.__dict__ for r in serial]


class TestSharedMemoryGrid:
    """Pool grids, whose workers pack each workload themselves, match serial."""

    def test_shm_grid_matches_serial_without_leaks(self):
        cells = [
            cell_for(by_name(w), replace(FAST, policy=p))
            for w in ("astar", "hmmer")
            for p in ("discard", "dripper")
        ]
        serial = run_cells(cells, jobs=1)
        shared = run_cells(cells, jobs=2)
        assert shared == serial
        assert _children() == []

    def test_session_reuses_store_across_batches(self):
        cells = [cell_for(by_name(w), replace(FAST, policy=p))
                 for w in ("astar", "hmmer") for p in ("discard", "permit")]
        serial = run_cells(cells, jobs=1)
        with grid_session(2) as session:
            first = run_cells(cells, jobs=2)
            pool = session._pool
            assert pool is not None  # the batch itself forked the pool
            second = run_cells(cells, jobs=2)
            assert session.pool() is pool  # forked once for both batches
        assert first == serial and second == serial

    def test_unpublishable_workload_packs_in_workers(self):
        # no seed or path: the workload is id-keyed in each worker's pack
        # cache — and must still match the serial run
        cells = [cell_for(_NameOnly(w), FAST) for w in ("astar", "hmmer")]
        shared = run_cells(cells, jobs=2)
        assert shared == run_cells(cells, jobs=1)

    def test_qmm_mix_cores_match_serial(self):
        # QMM cores run half-length windows; the pooled packed mix loop must
        # equal the serial generator mix loop core for core
        from repro.experiments.parallel import mix_cell_for, run_mix_cells

        def cells(packed):
            return [mix_cell_for(_workloads(("qmm_int_13", "astar")),
                                 replace(FAST, policy=p, packed=packed), mix_id=0)
                    for p in ("discard", "permit")]

        serial = run_mix_cells(cells(packed=False), jobs=1)
        pooled = run_mix_cells(cells(packed=True), jobs=2)
        assert pooled == serial
        assert all(r.instructions > 0 for mix in pooled for r in mix.results)

    def test_run_policies_shm_matches_serial(self):
        workloads = _workloads(("astar", "hmmer"))
        serial = run_policies(workloads, ["discard", "permit"], base_spec=FAST)
        shared = run_policies(workloads, ["discard", "permit"], base_spec=FAST,
                              jobs=2)
        assert shared == serial

    def test_persistent_session_journal_not_double_counted(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cells = [cell_for(by_name(w), replace(FAST, policy=p))
                 for w in ("astar", "hmmer") for p in ("discard", "permit")]
        with grid_session(2):
            run_cells(cells, jobs=2, obs=obs)
            run_cells(cells, jobs=2, obs=obs)
        obs.close()
        records = read_journal(journal)
        assert len(records) == 8  # 2 batches x 4 cells, once each
        assert obs.runs == 8
        assert all(r["host"]["pid"] != os.getpid() for r in records)  # worker records


class TestNoProcessOutlivesGrid:
    """A finished grid leaves no child process behind (workers, helpers)."""

    def test_run_cells_leaves_no_child(self):
        cells = [cell_for(w, replace(FAST, policy=p)) for w in _workloads(("astar", "hmmer"))
                 for p in ("discard", "permit")]
        run_cells(cells, jobs=2)
        assert _children() == []

    def test_closed_session_leaves_no_child(self):
        from repro.experiments.parallel import mix_cell_for, run_mix_cells

        workloads = _workloads(("astar", "hmmer"))
        with grid_session(2):
            run_cells([cell_for(w, FAST) for w in workloads], jobs=2)
            run_mix_cells([mix_cell_for(workloads, replace(FAST, policy=p), mix_id=0)
                           for p in ("discard", "permit")], jobs=2)
            assert _children() != []  # the session's workers are alive
        assert _children() == []


class TestFailedBatchStops:
    def test_failed_chunk_cancels_queued_chunks(self, tmp_path):
        markers = [str(tmp_path / f"chunk-{i}") for i in range(16)]
        # chunk 0 is the costliest, so it dispatches first
        chunks = [([i], float(len(markers) - i)) for i in range(len(markers))]
        with pytest.raises(RuntimeError, match="chunk 0 failed"):
            _run_on_pool(markers, 2, chunks, _mark_chunk, lambda i, r: None, None, None)
        ran = [m for m in markers if Path(m).exists()]
        assert markers[0] in ran
        assert len(ran) < len(markers) // 2, ran


class TestFailedChunkTelemetry:
    """A chunk that raises still sends home what it recorded, and only that."""

    VALIDATED = RunSpec(warmup_instructions=1_000, sim_instructions=3_000, validate=True)

    def _failing_batch(self, obs=None):
        from repro.validate import InvariantViolation, reintroduce_stale_mshr_bug

        with reintroduce_stale_mshr_bug(), pytest.raises(InvariantViolation):
            run_policies(_workloads(("astar", "hmmer")), ["discard", "permit"],
                         base_spec=self.VALIDATED, jobs=2, obs=obs)

    def test_violation_reaches_the_parent_journal(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        self._failing_batch(obs)
        obs.close()
        kinds = [r.get("kind") for r in read_journal(journal)]
        assert "invariant_violation" in kinds

    def test_failed_batch_leaves_nothing_for_the_next(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cells = [cell_for(by_name(w), replace(FAST, policy=p))
                 for w in ("astar", "hmmer") for p in ("discard", "permit")]
        with grid_session(2):
            self._failing_batch(obs)
            written, runs = obs.journal.records_written, obs.runs
            run_cells(cells, jobs=2, obs=obs)
        obs.close()
        assert obs.journal.records_written - written == 4
        assert obs.runs - runs == 4
        assert all("kind" not in r for r in read_journal(journal)[written:])

    def test_mutation_shim_leaves_no_mutated_worker_in_the_session(self):
        workloads = _workloads(("astar", "hmmer"))
        with grid_session(2):
            self._failing_batch()
            clean = run_policies(workloads, ["discard", "permit"],
                                 base_spec=self.VALIDATED, jobs=2)
        assert clean == run_policies(workloads, ["discard", "permit"], base_spec=FAST)

    def test_failing_chunk_span_and_metrics_reach_the_parent(self):
        from repro.obs.metrics import get_metrics
        from repro.obs.tracing import Tracer, install_tracer

        drives = get_metrics().counter("sim.drives")
        before = drives.total()
        tracer = Tracer(role="parent")
        previous = install_tracer(tracer)
        try:
            self._failing_batch()
        finally:
            install_tracer(previous)
        assert drives.total() > before
        events = tracer.chrome_events()
        cells = [e for e in events if e["ph"] == "X" and e["name"] == "cell"]
        assert cells and all(e["pid"] != os.getpid() for e in cells)
        lanes = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert all(lanes[e["pid"]].startswith("repro-worker-") for e in cells)


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
