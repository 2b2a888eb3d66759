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


class TestShardMerge:
    def test_append_record_and_merge(self, tmp_path):
        from repro.obs import merge_shards

        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        for shard, names in (("shard-b.jsonl", ["w2", "w3"]), ("shard-a.jsonl", ["w1"])):
            with RunJournal(shard_dir / shard) as j:
                for name in names:
                    j.append_record({"schema": 1, "workload": {"name": name}})
        parent = RunJournal(tmp_path / "runs.jsonl")
        merged = merge_shards(parent, shard_dir)
        parent.close()
        assert merged == 3
        assert parent.records_written == 3
        names = [r["workload"]["name"] for r in read_journal(tmp_path / "runs.jsonl")]
        assert names == ["w1", "w2", "w3"]  # sorted shard order, in-shard order kept

    def test_merge_ignores_non_matching_files(self, tmp_path):
        from repro.obs import merge_shards

        (tmp_path / "notes.txt").write_text("not a shard")
        parent = RunJournal(tmp_path / "runs.jsonl")
        assert merge_shards(parent, tmp_path) == 0

    def test_merge_tolerates_empty_shards(self, tmp_path):
        # a worker whose chunk raised before its first record leaves a
        # zero-byte (or blank-line-only) shard behind
        from repro.obs import merge_shards

        (tmp_path / "shard-a.jsonl").write_text("")
        (tmp_path / "shard-b.jsonl").write_text("\n\n")
        with RunJournal(tmp_path / "shard-c.jsonl") as j:
            j.append_record({"schema": 1, "workload": {"name": "w1"}})
        parent = RunJournal(tmp_path / "runs.jsonl")
        merged = merge_shards(parent, tmp_path, pattern="shard-*.jsonl", consume=True)
        parent.close()
        assert merged == 1
        assert list(tmp_path.glob("shard-*.jsonl")) == []  # empties consumed too

    def test_merge_partial_shard_keeps_complete_records(self, tmp_path):
        # blank lines interspersed with records (flush boundaries) are skipped
        from repro.obs import merge_shards

        lines = ['{"schema": 1, "workload": {"name": "w1"}}', "",
                 '{"schema": 1, "workload": {"name": "w2"}}', ""]
        (tmp_path / "shard-a.jsonl").write_text("\n".join(lines))
        parent = RunJournal(tmp_path / "runs.jsonl")
        assert merge_shards(parent, tmp_path, pattern="shard-*.jsonl") == 2
        parent.close()
        names = [r["workload"]["name"] for r in read_journal(tmp_path / "runs.jsonl")]
        assert names == ["w1", "w2"]

    def test_merge_interleaved_worker_shards(self, tmp_path):
        # two workers flushing per-chunk shards whose sequence numbers
        # interleave: merge order is sorted-filename, in-shard order kept
        from repro.obs import merge_shards

        shards = {
            "shard-00000001-000001.jsonl": ["a1", "a2"],
            "shard-00000002-000001.jsonl": ["b1"],
            "shard-00000001-000002.jsonl": ["a3"],
            "shard-00000002-000002.jsonl": ["b2", "b3"],
        }
        for name, records in shards.items():
            with RunJournal(tmp_path / name) as j:
                for rec in records:
                    j.append_record({"schema": 1, "workload": {"name": rec}})
        parent = RunJournal(tmp_path / "runs.jsonl")
        merged = merge_shards(parent, tmp_path, pattern="shard-*.jsonl", consume=True)
        parent.close()
        assert merged == 6
        names = [r["workload"]["name"] for r in read_journal(tmp_path / "runs.jsonl")]
        assert names == ["a1", "a2", "a3", "b1", "b2", "b3"]
        assert list(tmp_path.glob("shard-*.jsonl")) == []

    def test_merge_twice_without_consume_double_counts(self, tmp_path):
        # documents why persistent sessions must consume: shards left behind
        # are folded in again on the next merge from the same directory
        from repro.obs import merge_shards

        with RunJournal(tmp_path / "shard-a.jsonl") as j:
            j.append_record({"schema": 1, "workload": {"name": "w"}})
        parent = RunJournal(tmp_path / "runs.jsonl")
        assert merge_shards(parent, tmp_path, pattern="shard-*.jsonl") == 1
        assert merge_shards(parent, tmp_path, pattern="shard-*.jsonl") == 1
        parent.close()
        assert len(read_journal(tmp_path / "runs.jsonl")) == 2


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
