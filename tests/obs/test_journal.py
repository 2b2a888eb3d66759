"""RunJournal: record schema, JSON round-trip, runner/sweep integration."""

import json

from repro.core.dripper import make_dripper
from repro.cpu.simulator import SimConfig, simulate
from repro.experiments.runner import RunSpec, run_many
from repro.obs import Observability, RunJournal, read_journal
from repro.obs.journal import build_run_record, describe_config, host_info
from repro.workloads import by_name

_FAST = dict(warmup_instructions=1_000, sim_instructions=3_000)


def _config(**kw):
    return SimConfig(prefetcher="berti", policy_factory=lambda: make_dripper("berti"),
                     **{**_FAST, **kw})


class TestRecordSchema:
    def test_simulate_emits_full_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(path))
        workload = by_name("astar")
        result = simulate(workload, _config(), obs=obs)
        obs.close()

        (rec,) = read_journal(path)
        assert rec["schema"] == 1
        assert rec["workload"]["name"] == "astar"
        assert rec["workload"]["seed"] is not None
        assert rec["config"]["policy"] == "dripper[berti]"
        assert rec["config"]["warmup_instructions"] == 1_000
        # full hardware parameters are embedded
        assert "stlb" in rec["config"]["params"]
        assert rec["result"]["ipc"] == result.ipc
        assert rec["wall_seconds"] > 0
        assert rec["host"]["python"]

    def test_record_is_json_round_trippable(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(path))
        simulate(by_name("astar"), _config(), obs=obs)
        obs.close()
        line = path.read_text().strip()
        assert json.loads(line)["derived"]["prefetch_accuracy"] >= 0.0

    def test_appends_across_runs(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(path))
        simulate(by_name("astar"), _config(), obs=obs)
        simulate(by_name("hmmer"), _config(), obs=obs)
        obs.close()
        names = [r["workload"]["name"] for r in read_journal(path)]
        assert names == ["astar", "hmmer"]

    def test_build_record_without_journal(self):
        workload = by_name("hmmer")
        config = _config()
        result = simulate(workload, config)
        rec = build_run_record(workload=workload, config=config, result=result,
                               wall_seconds=0.5, extra={"note": "x"})
        assert rec["context"] == {"note": "x"}
        assert rec["instructions_per_second"] == result.instructions / 0.5
        json.dumps(rec)  # must be serialisable

    def test_describe_config_names_factory_without_result(self):
        from repro.core.policies import DiscardPgc

        d = describe_config(SimConfig(policy_factory=DiscardPgc))
        assert d["policy"] == "discard-pgc"  # the class's `name` attribute

    def test_host_info_fields(self):
        info = host_info()
        assert set(info) >= {"hostname", "platform", "python", "pid"}


class TestRunnerIntegration:
    def test_run_many_attaches_spec_context(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(path))
        spec = RunSpec(policy="dripper", warmup_instructions=1_000, sim_instructions=3_000)
        run_many([by_name("astar")], spec, obs=obs)
        obs.close()
        (rec,) = read_journal(path)
        assert rec["context"]["spec"]["policy"] == "dripper"
        assert rec["context"]["spec"]["sim_instructions"] == 3_000

    def test_run_many_journals_every_run(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(path))
        spec = RunSpec(policy="discard", warmup_instructions=1_000, sim_instructions=2_000)
        workloads = [by_name("astar"), by_name("hmmer")]
        results = run_many(workloads, spec, obs=obs)
        obs.close()
        assert len(results) == 2
        assert len(read_journal(path)) == 2

    def test_sweep_tags_cells(self, tmp_path):
        from repro.experiments.sweep import stlb_size_transform, sweep_parameter

        path = tmp_path / "sweep.jsonl"
        obs = Observability(journal=RunJournal(path))
        spec = RunSpec(warmup_instructions=1_000, sim_instructions=2_000)
        sweep_parameter([by_name("hmmer")], stlb_size_transform, [768],
                        policies=("permit",), base_spec=spec, obs=obs)
        obs.close()
        records = read_journal(path)
        assert len(records) == 2  # discard baseline + permit
        assert {r["context"]["sweep"]["policy"] for r in records} == {"discard", "permit"}
        assert all(r["context"]["sweep"]["value"] == 768 for r in records)


class TestChunkJournal:
    """Grid worker chunks journal into memory and send the records home."""

    CELLS = [("astar", "discard"), ("hmmer", "permit")]

    def _run_chunk(self, cells, use_journal=True, validate=False):
        from repro.experiments.parallel import _run_chunk_worker, cell_for, execute_cells

        items = [(i, cell_for(by_name(w), RunSpec(**_FAST, policy=p, validate=validate)))
                 for i, (w, p) in enumerate(cells)]
        return _run_chunk_worker(execute_cells, items, use_journal)

    def test_chunk_records_ride_the_report(self, tmp_path):
        report = self._run_chunk(self.CELLS)
        assert report.error is None
        assert report.runs == 2
        assert [(r["workload"]["name"], r["context"]["spec"]["policy"])
                for r in report.records] == self.CELLS
        parent = RunJournal(tmp_path / "runs.jsonl")
        for record in report.records:
            parent.append_record(record)
        parent.close()
        assert read_journal(tmp_path / "runs.jsonl") == report.records

    def test_memory_journal_writes_no_file(self, tmp_path, monkeypatch):
        from repro.experiments.parallel import _MemoryJournal

        monkeypatch.chdir(tmp_path)
        journal = _MemoryJournal()
        journal.append_record({"schema": 1, "workload": {"name": "w1"}})
        journal.close()
        assert journal.records == [{"schema": 1, "workload": {"name": "w1"}}]
        assert journal.records_written == 1
        assert list(tmp_path.iterdir()) == []

    def test_unjournaled_chunk_reports_no_records(self):
        report = self._run_chunk(self.CELLS, use_journal=False)
        assert (report.records, report.runs) == ([], 0)
        assert [i for i, _ in report.results] == [0, 1]

    def test_failed_chunk_returns_its_records_and_error(self):
        from repro.validate import InvariantViolation, reintroduce_stale_mshr_bug

        with reintroduce_stale_mshr_bug():
            report = self._run_chunk(self.CELLS[:1], validate=True)
        assert isinstance(report.error, InvariantViolation)
        assert "InvariantViolation" in report.error_trace
        assert report.results == [] and report.runs == 0
        assert [r["kind"] for r in report.records] == ["invariant_violation"]

    def test_each_chunk_reports_only_its_own_records(self):
        first = self._run_chunk(self.CELLS[:1])
        second = self._run_chunk(self.CELLS[1:])
        assert [r["workload"]["name"] for r in first.records] == ["astar"]
        assert [r["workload"]["name"] for r in second.records] == ["hmmer"]


class TestObservabilityBundle:
    def test_captures_filter_state_and_wall(self):
        obs = Observability()
        simulate(by_name("astar"), _config(), obs=obs)
        assert obs.runs == 1
        assert obs.last_wall_seconds > 0
        assert obs.last_filter_state is not None
        assert "threshold" in obs.last_filter_state
        assert obs.last_engine is None  # not kept by default

    def test_keep_engine(self):
        obs = Observability(keep_engine=True)
        simulate(by_name("astar"), _config(), obs=obs)
        assert obs.last_engine is not None
        assert obs.last_engine.measuring is True
