"""CLI smoke tests."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "astar"])
        args2 = build_parser().parse_args(["compare", "--workload", "astar"])
        assert args.policy == "dripper"
        assert args2.policies == ["discard", "permit", "dripper"]

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "astar", "--policy", "magic"])


class TestCommands:
    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "pub" in out

    def test_features(self, capsys):
        assert main(["features"]) == 0
        out = capsys.readouterr().out
        assert "55 program features" in out
        assert "6 system features" in out

    def test_workloads_filtered(self, capsys):
        assert main(["workloads", "--set", "seen", "--suite", "GAP"]) == 0
        out = capsys.readouterr().out
        assert "cc.road" in out
        assert "astar" not in out

    def test_workloads_unknown_suite_errors(self):
        with pytest.raises(SystemExit) as err:
            main(["workloads", "--set", "seen", "--suite", "BOGUS"])
        message = str(err.value)
        assert "BOGUS" in message
        assert "GAP" in message and "SPEC" in message  # lists the known suites

    def test_run_small(self, capsys):
        code = main([
            "run", "--workload", "hmmer", "--policy", "discard",
            "--warmup", "1000", "--sim", "3000",
        ])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--workload", "hmmer", "--policies", "discard", "permit",
            "--warmup", "1000", "--sim", "3000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "permit-pgc" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "--workload", "nope", "--warmup", "100", "--sim", "100"])


class TestObservabilityFlags:
    _FAST = ["--warmup", "1000", "--sim", "4000"]

    def test_run_with_timeline_journal_profile(self, tmp_path, capsys):
        timeline = tmp_path / "timeline.jsonl"
        journal = tmp_path / "journal.jsonl"
        code = main([
            "run", "--workload", "astar", "--policy", "dripper", *self._FAST,
            "--timeline-out", str(timeline), "--journal", str(journal), "--profile",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "samples of process CPU time" in captured.out
        assert "named sections:" in captured.out

        rows = [json.loads(line) for line in timeline.read_text().splitlines()]
        assert len(rows) >= 2  # 5000 instructions / 2048-instruction epochs
        assert all("threshold" in r and "permit_rate" in r for r in rows)
        assert all(r["permit_rate"] is not None for r in rows)

        rec = json.loads(journal.read_text().splitlines()[0])
        assert rec["config"]["policy"] == "dripper[berti]"
        assert rec["wall_seconds"] > 0
        assert rec["context"]["spec"]["policy"] == "dripper"

    def test_run_json_output(self, capsys):
        code = main(["run", "--workload", "hmmer", "--policy", "discard",
                     *self._FAST, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "hmmer"
        assert payload["result"]["ipc"] > 0
        assert "prefetch_coverage" in payload["derived"]
        assert payload["spec"]["policy"] == "discard"

    def test_json_with_profile_stays_parseable(self, capsys):
        code = main(["run", "--workload", "hmmer", "--policy", "discard",
                     *self._FAST, "--json", "--profile"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["profile"]["sections"]) >= {"l1d-hit", "miss-path", "other"}

    def test_compare_profile_shares_span_every_run(self, capsys):
        code = main(["compare", "--workload", "astar",
                     "--policies", "discard", "permit", "dripper",
                     *self._FAST, "--json", "--profile"])
        assert code == 0
        profile = json.loads(capsys.readouterr().out)["profile"]
        sections = profile["sections"]
        assert profile["samples"] == sum(s["samples"] for s in sections.values())
        assert all(0.0 <= s["share"] <= 1.0 for s in sections.values())
        assert 0.0 <= profile["named_share"] <= 1.0

    def test_compare_json(self, capsys):
        code = main(["compare", "--workload", "hmmer", "--policies", "discard", "permit",
                     *self._FAST, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == "discard"
        assert len(payload["runs"]) == 2
        assert payload["runs"][0]["speedup_pct"] == 0.0

    def test_compare_timeline_csv(self, tmp_path, capsys):
        timeline = tmp_path / "timeline.csv"
        code = main(["compare", "--workload", "hmmer", "--policies", "discard", "permit",
                     *self._FAST, "--timeline-out", str(timeline)])
        assert code == 0
        lines = timeline.read_text().splitlines()
        assert lines[0].startswith("run,workload,epoch")
        # both runs contribute rows, tagged 0 and 1
        assert any(line.startswith("0,hmmer") for line in lines[1:])
        assert any(line.startswith("1,hmmer") for line in lines[1:])


class TestInstrumentsRideLockstep:
    """Observing a compare drives what the plain compare drives (DESIGN.md §17)."""

    # Berti proposes no page-cross candidate on omnetpp: one drive serves all
    _ARGV = ["compare", "--workload", "omnetpp", "--policies", "discard", "permit",
             "dripper", "--warmup", "2000", "--sim", "6000", "--json"]

    def _compare(self, capsys, *flags):
        from repro.cpu.simulator import DRIVES

        before = DRIVES.total()
        assert main([*self._ARGV, *flags]) == 0
        runs = json.loads(capsys.readouterr().out)["runs"]
        return DRIVES.total() - before, runs

    def test_one_drive_and_identical_results_under_every_flag(self, tmp_path, capsys):
        drives, plain = self._compare(capsys)
        assert drives == 1
        for flags in (["--journal", str(tmp_path / "runs.jsonl")], ["--profile"],
                      ["--timeline-out", str(tmp_path / "t.csv")], ["--validate"]):
            drives, runs = self._compare(capsys, *flags)
            assert drives == 1, flags
            assert runs == plain, flags
        # a pool cuts one workload's policies into one-cell chunks so both
        # workers have work (parallel.py's scheduling note); results match
        _, runs = self._compare(capsys, "--jobs", "2")
        assert runs == plain

    def test_journal_has_one_record_per_policy(self, tmp_path, capsys):
        journal = tmp_path / "runs.jsonl"
        self._compare(capsys, "--journal", str(journal))
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [r["context"]["spec"]["policy"] for r in records] == [
            "discard", "permit", "dripper"]
        assert [r["result"]["policy"] for r in records] == [
            "discard-pgc", "permit-pgc", "dripper[berti]"]
        # each record carries an even share of the one drive's wall time
        assert len({r["wall_seconds"] for r in records}) == 1


class TestParallelAndCacheFlags:
    _FAST = ["--warmup", "1000", "--sim", "3000"]

    def test_compare_jobs_and_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["compare", "--workload", "hmmer", "--policies", "discard", "permit",
                *self._FAST, "--jobs", "2", "--cache-dir", str(cache_dir), "--json"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        first = json.loads(captured.out)
        assert "2 store(s)" in captured.err
        # second invocation: a fresh process-equivalent run, all cache hits
        assert main(argv) == 0
        captured = capsys.readouterr()
        second = json.loads(captured.out)
        assert "2 hit(s)" in captured.err and "0 store(s)" in captured.err
        assert second == first

    def test_compare_cached_journals_simulated_runs_only(self, tmp_path):
        cache_dir, journal = tmp_path / "cache", tmp_path / "runs.jsonl"
        argv = ["compare", "--workload", "hmmer", "--policies", "discard", "permit",
                *self._FAST, "--cache-dir", str(cache_dir), "--journal", str(journal)]
        assert main(argv) == 0
        assert main(argv) == 0
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert len(records) == 2  # second invocation was served from the cache

    def test_sweep_table(self, capsys):
        code = main(["sweep", "--param", "dram-latency", "--values", "120", "360",
                     "--workloads", "hmmer", "--policies", "permit", *self._FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep dram-latency" in out
        assert "120" in out and "360" in out

    def test_sweep_epoch_json(self, capsys):
        code = main(["sweep", "--param", "epoch", "--values", "512", "2048",
                     "--workloads", "hmmer", *self._FAST, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["points"]) == {"512", "2048"}
        assert all("dripper" in point for point in payload["points"].values())

    def test_sweep_rejects_invalid_tlb_size(self):
        with pytest.raises(ValueError, match="multiple of its 12 ways"):
            main(["sweep", "--param", "stlb", "--values", "100",
                  "--workloads", "hmmer", *self._FAST])

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workload", "astar", "--jobs", "0"])


class TestInspect:
    def test_inspect_dripper(self, capsys):
        code = main(["inspect", "--workload", "astar",
                     "--warmup", "1000", "--sim", "4000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dripper[berti]" in out
        assert "T_a=" in out

    def test_inspect_json(self, capsys):
        code = main(["inspect", "--workload", "astar", "--json",
                     "--warmup", "1000", "--sim", "4000"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["filter"]["name"] == "dripper[berti]"
        assert "threshold" in payload["filter"]

    def test_inspect_static_policy_fails_cleanly(self, capsys):
        code = main(["inspect", "--workload", "astar", "--policy", "discard",
                     "--warmup", "1000", "--sim", "4000"])
        assert code == 1
        assert "not a perceptron filter" in capsys.readouterr().err


class TestTraceCommands:
    def test_snapshot_and_replay(self, tmp_path, capsys):
        out = tmp_path / "snap.rptr"
        assert main(["snapshot", "--workload", "hmmer", "--out", str(out), "--instructions", "2000"]) == 0
        assert out.exists()
        code = main([
            "run", "--trace-file", str(out), "--policy", "discard",
            "--warmup", "500", "--sim", "1000",
        ])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_workload_and_trace_file_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "run", "--workload", "astar", "--trace-file", "x.rptr",
            ])


class TestPrefetcherChoices:
    def test_all_registered_prefetchers_accepted(self):
        for name in ("berti", "berti-timely", "ipcp", "bop", "stride", "next-line", "none"):
            args = build_parser().parse_args(["run", "--workload", "astar", "--prefetcher", name])
            assert args.prefetcher == name


class TestValidate:
    def test_validate_flag_off_by_default(self):
        args = build_parser().parse_args(["run", "--workload", "astar"])
        assert args.validate is False

    def test_run_with_validate(self, capsys):
        code = main([
            "run", "--workload", "hmmer", "--policy", "permit",
            "--warmup", "500", "--sim", "1500", "--validate",
        ])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_validate_subcommand_table(self, capsys):
        code = main([
            "validate", "--workloads", "hmmer", "--policies", "discard",
            "--warmup", "500", "--sim", "1500", "--fuzz", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "validation suite" in out
        assert "FAIL" not in out

    def test_validate_subcommand_json(self, capsys):
        code = main([
            "validate", "--workloads", "hmmer", "--policies", "discard", "permit",
            "--warmup", "500", "--sim", "1500", "--fuzz", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"])
        names = {check["name"] for check in payload["checks"]}
        assert any(name.startswith("determinism") for name in names)
        assert any(name.startswith("mutation-detected") for name in names)


class TestMixCommand:
    FAST = ["--mixes", "1", "--cores", "2", "--warmup", "500", "--sim", "1500"]

    def test_mix_table(self, capsys):
        code = main(["mix", *self.FAST, "--policies", "discard", "dripper"])
        assert code == 0
        out = capsys.readouterr().out
        assert "weighted speedup over discard" in out
        assert "dripper" in out

    def test_mix_json_jobs2_journal(self, tmp_path, capsys):
        journal = tmp_path / "mix.jsonl"
        code = main(["mix", *self.FAST, "--policies", "discard", "permit",
                     "--jobs", "2", "--json", "--journal", str(journal)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == "discard"
        assert len(payload["policies"]["permit"]["per_mix_pct"]) == 1
        from repro.obs import read_journal

        records = read_journal(journal)
        mix_records = [r for r in records
                       if (r.get("context") or {}).get("mix") is not None]
        assert len(mix_records) == 2 * 2  # 2 policies x 2 cores
        capsys.readouterr()
        assert main(["status", "--journal", str(journal)]) == 0
        assert "mix work" in capsys.readouterr().out

    def test_mix_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mix", "--policies", "bogus"])


class TestTelemetryFlags:
    FAST = ["--warmup", "1000", "--sim", "3000"]

    def test_run_metrics_out_prometheus(self, tmp_path, capsys):
        out = tmp_path / "m.prom"
        code = main(["run", "--workload", "astar", "--policy", "discard",
                     *self.FAST, "--metrics-out", str(out)])
        assert code == 0
        from repro.obs.metrics import parse_prometheus, summarize

        samples = parse_prometheus(out.read_text())
        assert summarize(samples, "sim_drives_total") >= 1
        assert f"-> {out}" in capsys.readouterr().err

    def test_run_metrics_out_json(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["run", "--workload", "astar", "--policy", "discard",
                     *self.FAST, "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {s["name"] for s in doc["samples"]} >= {"sim.drives"}

    def test_run_trace_out_chrome_json(self, tmp_path, capsys):
        from repro.workloads.packed import clear_pack_cache

        clear_pack_cache()  # a warm cache would skip the "pack" span
        out = tmp_path / "t.json"
        code = main(["run", "--workload", "astar", "--policy", "discard",
                     *self.FAST, "--trace-out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"pack", "drive", "collect"} <= names
        assert "span(s)" in capsys.readouterr().err

    def test_trace_out_does_not_leak_into_later_commands(self, tmp_path):
        from repro.obs.tracing import current_tracer

        out = tmp_path / "t.json"
        main(["run", "--workload", "astar", "--policy", "discard",
              *self.FAST, "--trace-out", str(out)])
        assert current_tracer() is None  # uninstalled after emitting

    def test_compare_progress_lines(self, capsys):
        code = main(["compare", "--workload", "astar",
                     "--policies", "discard", "dripper", *self.FAST,
                     "--jobs", "2", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "grid: 2 cell(s)" in err
        assert "grid: done in" in err


class TestStatusCommand:
    FAST = ["--warmup", "1000", "--sim", "3000"]

    def _journal(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        main(["compare", "--workload", "astar",
              "--policies", "discard", "dripper", *self.FAST,
              "--journal", str(journal)])
        return journal

    def test_status_table(self, tmp_path, capsys):
        journal = self._journal(tmp_path)
        capsys.readouterr()
        assert main(["status", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "runs" in out and "astar" in out
        assert "per policy" in out

    def test_status_json_with_metrics(self, tmp_path, capsys):
        journal = tmp_path / "runs.jsonl"
        metrics = tmp_path / "m.prom"
        main(["compare", "--workload", "astar",
              "--policies", "discard", "dripper", *self.FAST,
              "--journal", str(journal), "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert main(["status", "--journal", str(journal),
                     "--metrics", str(metrics), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["runs"] == 2
        assert payload["summary"]["workloads"] == ["astar"]
        assert payload["summary"]["instructions"] > 0
        assert any(k.startswith("sim_drives_total") for k in payload["metrics"])

    def test_status_empty_journal_fails(self, tmp_path, capsys):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        assert main(["status", "--journal", str(journal)]) == 1
        assert "no records" in capsys.readouterr().err
