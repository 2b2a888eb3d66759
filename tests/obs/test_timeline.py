"""TimelineRecorder: epoch sampling, filter fields, CSV/JSONL export."""

import csv
import json

import pytest

from repro.core.dripper import make_dripper
from repro.cpu.simulator import SimConfig, simulate
from repro.obs import Observability, TimelineRecorder
from repro.obs.timeline import TIMELINE_FIELDS
from repro.workloads import by_name

_WARMUP = 2_000
_SIM = 8_000
_EPOCH = 1_024


def _run(policy_factory, recorder, **cfg_kw):
    config = SimConfig(
        prefetcher="berti",
        policy_factory=policy_factory,
        warmup_instructions=_WARMUP,
        sim_instructions=_SIM,
        epoch_instructions=_EPOCH,
        **cfg_kw,
    )
    obs = Observability(timeline=recorder)
    result = simulate(by_name("astar"), config, obs=obs)
    return result, recorder


class TestRecording:
    def test_one_row_per_epoch(self):
        _, rec = _run(lambda: make_dripper("berti"), TimelineRecorder())
        # ~ (warmup + sim) / epoch rows, minus boundary effects
        assert len(rec.rows) >= (_WARMUP + _SIM) // _EPOCH - 1
        assert [r["epoch"] for r in rec.rows] == list(range(1, len(rec.rows) + 1))

    def test_rows_carry_threshold_and_permit_rate_for_dripper(self):
        _, rec = _run(lambda: make_dripper("berti"), TimelineRecorder())
        for row in rec.rows:
            assert row["threshold"] is not None
            assert row["permit_rate"] is not None
            assert 0.0 <= row["permit_rate"] <= 1.0

    def test_static_policy_has_null_filter_fields(self):
        from repro.core.policies import DiscardPgc

        _, rec = _run(DiscardPgc, TimelineRecorder())
        assert all(r["threshold"] is None and r["permit_rate"] is None for r in rec.rows)

    def test_measuring_flag_flips_after_warmup(self):
        _, rec = _run(lambda: make_dripper("berti"), TimelineRecorder())
        flags = [r["measuring"] for r in rec.rows]
        assert flags[0] is False
        assert flags[-1] is True
        # monotone: once measuring, always measuring
        assert flags == sorted(flags)

    def test_progress_counters_monotone(self):
        _, rec = _run(lambda: make_dripper("berti"), TimelineRecorder())
        totals = [r["total_instructions"] for r in rec.rows]
        cycles = [r["cycles"] for r in rec.rows]
        assert totals == sorted(totals)
        assert cycles == sorted(cycles)

    def test_sample_every(self):
        _, every = _run(lambda: make_dripper("berti"), TimelineRecorder())
        _, sparse = _run(lambda: make_dripper("berti"), TimelineRecorder(sample_every=3))
        assert [r["epoch"] for r in sparse.rows] == [r["epoch"] for r in every.rows][::3]

    def test_sample_every_validation(self):
        with pytest.raises(ValueError):
            TimelineRecorder(sample_every=0)

    def test_multiple_runs_tagged(self):
        rec = TimelineRecorder()
        _run(lambda: make_dripper("berti"), rec)
        _run(lambda: make_dripper("berti"), rec)
        runs = {r["run"] for r in rec.rows}
        assert runs == {0, 1}
        # per-run epoch numbering restarts
        first_of_run1 = next(r for r in rec.rows if r["run"] == 1)
        assert first_of_run1["epoch"] == 1

    def test_lockstep_drive_reads_its_leader(self):
        # Berti proposes no page-cross candidate on omnetpp, so DRIPPER and
        # Discard share one drive: its rows carry the leader's policy and
        # filter columns, and each member is finished with its own policy
        from repro.core.policies import DiscardPgc
        from repro.cpu.simulator import simulate_policies

        configs = [SimConfig(prefetcher="berti", policy_factory=factory,
                             warmup_instructions=_WARMUP, sim_instructions=_SIM,
                             epoch_instructions=_EPOCH)
                   for factory in (lambda: make_dripper("berti"), DiscardPgc)]
        obs = Observability(timeline=TimelineRecorder())
        simulate_policies(by_name("omnetpp"), configs, obs=obs)
        rows = obs.timeline.rows
        assert {r["run"] for r in rows} == {0}
        assert {r["policy"] for r in rows} == {"dripper[berti]"}
        assert all(r["threshold"] is not None for r in rows)
        assert obs.runs == 2
        assert obs.last_filter_state is None  # Discard, finished last

        configs.reverse()
        obs = Observability()
        simulate_policies(by_name("omnetpp"), configs, obs=obs)
        assert obs.last_filter_state is not None  # DRIPPER, though Discard led


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        _, rec = _run(lambda: make_dripper("berti"), TimelineRecorder())
        path = tmp_path / "timeline.jsonl"
        count = rec.write(str(path))
        lines = path.read_text().strip().splitlines()
        assert count == len(rec.rows) == len(lines)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0].keys() == rec.rows[0].keys()
        assert set(parsed[0]) == set(TIMELINE_FIELDS)

    def test_csv_by_extension(self, tmp_path):
        _, rec = _run(lambda: make_dripper("berti"), TimelineRecorder())
        path = tmp_path / "timeline.csv"
        rec.write(str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(rec.rows)
        assert list(rows[0]) == list(TIMELINE_FIELDS)
        assert rows[0]["workload"] == "astar"
