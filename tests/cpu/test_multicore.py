"""Multi-core mix simulation."""

from array import array
from dataclasses import replace

import pytest

from repro.core.policies import DiscardPgc
from repro.cpu.multicore import (
    MixResult,
    isolation_ipc,
    simulate_mix,
    weighted_speedup,
)
from repro.cpu.simulator import SimConfig, simulate
from repro.workloads.patterns import Gather, Stream
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import LOAD, STORE


def workload(name, seed, pattern=Stream, **kwargs):
    return SyntheticWorkload(
        name, "TEST", seed,
        [(lambda: pattern(0, **kwargs), 1 << 30)],
        mean_gap=2.0,
    )


class FiniteTrace:
    """A finite trace of ``records`` records (about three instructions each)."""

    def __init__(self, name, records, suite="TEST"):
        self.name = name
        self.records = records
        self.suite = suite

    def generate(self):
        for i in range(self.records):
            yield (0x400 + (i % 16) * 4, 0x10000 + (i * 192) % (1 << 16),
                   STORE if i % 3 == 0 else LOAD, i % 5)


def quick_config():
    return SimConfig(
        prefetcher="berti", policy_factory=DiscardPgc,
        warmup_instructions=1_000, sim_instructions=4_000,
    )


class TestSimulateMix:
    def test_all_cores_finish(self):
        mix = [workload(f"w{i}", i + 1, footprint_pages=256) for i in range(4)]
        result = simulate_mix(mix, quick_config())
        assert len(result.results) == 4
        for r in result.results:
            # warm-up may overshoot by one record's gap
            assert r.instructions >= 4_000 - 50
            assert r.ipc > 0

    def test_results_match_workload_order(self):
        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        result = simulate_mix(mix, quick_config())
        assert [r.workload for r in result.results] == ["w0", "w1"]

    def test_contention_slows_cores_down(self):
        """Memory-hog co-runners must reduce a core's IPC vs isolation."""
        victim = workload("victim", 1, footprint_pages=2048)
        hogs = [workload(f"hog{i}", i + 2, Gather, footprint_pages=8192) for i in range(3)]
        iso = isolation_ipc(victim, quick_config(), cores=4)
        mixed = simulate_mix([victim, *hogs], quick_config())
        assert mixed.results[0].ipc < iso

    def test_isolation_ipc_runs_qmm_at_half_window(self):
        qmm = qmm_workload()
        config = quick_config()
        halved = replace(config, params=config.params.scaled_llc(4),
                         warmup_instructions=500, sim_instructions=2_000)
        assert isolation_ipc(qmm, config, cores=4) == simulate(qmm, halved).ipc

    def test_deterministic(self):
        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        a = simulate_mix(mix, quick_config())
        b = simulate_mix(mix, quick_config())
        assert [r.ipc for r in a.results] == [r.ipc for r in b.results]


class TestWeightedIpc:
    def test_weighted_ipc_formula(self):
        results = simulate_mix(
            [workload("a", 1, footprint_pages=128), workload("b", 2, footprint_pages=128)],
            quick_config(),
        )
        isolation = [1.0, 2.0]
        expected = results.results[0].ipc / 1.0 + results.results[1].ipc / 2.0
        assert results.weighted_ipc(isolation) == pytest.approx(expected)

    def test_weighted_ipc_rejects_mismatch(self):
        result = MixResult([])
        with pytest.raises(ValueError):
            result.weighted_ipc([1.0])

    def test_weighted_ipc_rejects_zero_isolation(self):
        results = simulate_mix(
            [workload("a", 1, footprint_pages=128), workload("b", 2, footprint_pages=128)],
            quick_config(),
        )
        with pytest.raises(ValueError, match="isolation IPC for core 1"):
            results.weighted_ipc([1.0, 0.0])


def qmm_workload(name="qmmish", seed=5):
    """A QMM-suite workload: simulate_mix halves its per-core budgets."""
    return SyntheticWorkload(
        name, "QMM_INT", seed,
        [(lambda: Stream(0, footprint_pages=128), 1 << 30)],
        mean_gap=2.0,
    )


class TestConfigKnobs:
    """simulate_mix used to silently ignore packed/validate."""

    def test_packed_matches_generator(self):
        # include a QMM core: its halved budget makes it finish early and
        # replay, pushing the packed loop through the overflow seam
        mix = [qmm_workload(), *(workload(f"w{i}", i + 1, footprint_pages=128)
                                 for i in range(3))]
        generator = simulate_mix(mix, quick_config())
        packed = simulate_mix(mix, replace(quick_config(), packed=True))
        for a, b in zip(generator.results, packed.results):
            assert a == b

    def test_packed_matches_generator_on_finite_traces(self):
        # the 5k-instruction window outlasts "short", so its pack is
        # incomplete and it wraps before finishing; "long" (a QMM core, so
        # a halved window) finishes inside its pack, then replays through a
        # short overflow tail and wraps when that ends too, while the
        # miss-heavy cores catch up — both wraps answer the "end" event
        mix = [FiniteTrace("short", 1_500), FiniteTrace("long", 900, "QMM_INT"),
               *(workload(f"gather{i}", i + 1, Gather, footprint_pages=4096)
                 for i in range(2))]
        generator = simulate_mix(mix, quick_config())
        packed = simulate_mix(mix, replace(quick_config(), packed=True))
        for a, b in zip(generator.results, packed.results):
            assert a == b

    def test_validate_attaches_checker_per_core(self, monkeypatch):
        from repro.validate import InvariantChecker

        attached = []
        real_attach = InvariantChecker.attach

        def spy(self, engine):
            attached.append(engine)
            return real_attach(self, engine)

        monkeypatch.setattr(InvariantChecker, "attach", spy)
        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        simulate_mix(mix, replace(quick_config(), validate=True))
        assert len(attached) == 2

    def test_validate_passes_on_clean_mix(self):
        mix = [qmm_workload(), workload("plain", 6, footprint_pages=128)]
        clean = simulate_mix(mix, replace(quick_config(), validate=True))
        plain = simulate_mix(mix, quick_config())
        # validation is observational: identical results either way
        assert [r.ipc for r in clean.results] == [r.ipc for r in plain.results]


class TestHeapOrder:
    def test_identical_cores_tie_break_deterministically(self):
        # all cores share one retire clock, so every heap pop is decided by
        # the core-index tie-break; any instability would desynchronise the
        # shared LLC and show up as cross-run IPC jitter
        mix = [workload("same", 7, footprint_pages=256) for _ in range(4)]
        a = simulate_mix(mix, quick_config())
        b = simulate_mix(mix, quick_config())
        assert [r.ipc for r in a.results] == [r.ipc for r in b.results]
        packed = simulate_mix(mix, replace(quick_config(), packed=True))
        assert [r.ipc for r in packed.results] == [r.ipc for r in a.results]


class TestWeightedSpeedupCanonical:
    def test_metrics_delegates_to_multicore(self):
        from repro.experiments.metrics import weighted_speedup as via_metrics

        assert via_metrics([1.0, 2.0], [0.5, 1.0]) == weighted_speedup(
            [1.0, 2.0], [0.5, 1.0]) == 4.0

    def test_negative_isolation_rejected_everywhere(self):
        # the two copies used to disagree: MixResult raised only on iso == 0
        from repro.experiments.metrics import weighted_speedup as via_metrics

        with pytest.raises(ValueError, match="core 1"):
            weighted_speedup([1.0, 1.0], [1.0, -0.5])
        with pytest.raises(ValueError, match="core 1"):
            via_metrics([1.0, 1.0], [1.0, -0.5])

    def test_labels_name_the_offending_core(self):
        with pytest.raises(ValueError, match="'b'"):
            weighted_speedup([1.0, 1.0], [1.0, 0.0], labels=["a", "b"])


class TestMixTelemetry:
    def test_drives_counter_labels_mix_modes(self):
        from repro.obs.metrics import get_metrics

        def mode_count(snap, mode):
            metric = snap.counters.get("sim.drives", {"series": {}})
            return sum(value for labels, value in metric["series"].items()
                       if dict(labels).get("mode") == mode)

        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        before = get_metrics().snapshot()
        simulate_mix(mix, quick_config())
        simulate_mix(mix, replace(quick_config(), packed=True))
        after = get_metrics().snapshot()
        assert mode_count(after, "mix-generator") == mode_count(before, "mix-generator") + 1
        assert mode_count(after, "mix-packed") == mode_count(before, "mix-packed") + 1

    def test_journal_tags_mix_and_core(self, tmp_path):
        from repro.obs import Observability, RunJournal
        from repro.obs.journal import read_journal

        path = tmp_path / "mix.jsonl"
        obs = Observability(journal=RunJournal(path))
        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        simulate_mix(mix, quick_config(), obs=obs, mix_id=17)
        obs.close()
        records = read_journal(path)
        assert len(records) == 2
        assert [r["context"]["mix"] for r in records] == [17, 17]
        assert sorted(r["context"]["core"] for r in records) == [0, 1]

    def test_timeline_rejected(self):
        from repro.obs import Observability, TimelineRecorder

        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        with pytest.raises(ValueError, match="single-core"):
            simulate_mix(mix, quick_config(),
                         obs=Observability(timeline=TimelineRecorder()))


class TestPerCoreBudgets:
    def test_qmm_core_journals_halved_budget(self):
        # QMM workloads run half-length traces; the per-core config handed
        # to collect_result must carry the halved budget so the journaled
        # requested_instructions matches what the core measured
        qmm = SyntheticWorkload(
            "qmmish", "QMM_INT", 5,
            [(lambda: Stream(0, footprint_pages=128), 1 << 30)],
            mean_gap=2.0,
        )
        plain = workload("plain", 6, footprint_pages=128)
        result = simulate_mix([qmm, plain], quick_config())
        per_core = {r.workload: r for r in result.results}
        assert per_core["qmmish"].requested_instructions == 2_000
        assert per_core["plain"].requested_instructions == 4_000
        assert per_core["qmmish"].instructions >= 2_000


class TestIsolation:
    def test_isolation_uses_scaled_llc(self):
        w = workload("solo", 3, footprint_pages=700)
        single = simulate(w, quick_config()).ipc
        scaled = isolation_ipc(w, quick_config(), cores=8)
        # 8x LLC capacity on a 700-page footprint: misses drop, IPC rises
        assert scaled >= single


class TestPerCoreLlcStats:
    def test_shared_llc_stats_do_not_leak_into_core_results(self):
        """Each core's LLC MPKI must reflect only its own demand traffic."""
        mix = [workload(f"w{i}", i + 1, Gather, footprint_pages=4096) for i in range(4)]
        result = simulate_mix(mix, quick_config())
        total_shared = sum(r.llc_mpki * r.instructions / 1000 for r in result.results)
        for r in result.results:
            own = r.llc_mpki * r.instructions / 1000
            assert own < 0.5 * total_shared + 1, (
                "a single core reported most of the shared LLC's misses"
            )

    def test_single_core_unchanged_by_accounting(self):
        w = workload("solo", 9, footprint_pages=1024)
        r = simulate(w, quick_config())
        # in single-core runs the per-core view covers all demand traffic
        assert r.llc_mpki > 0


class TestOverflowTailCache:
    """The memoised overflow stream serves the exact uncached records."""

    def setup_method(self):
        from repro.cpu import fastpath_mix
        fastpath_mix.clear_overflow_tails()

    def test_cached_stream_matches_fresh_iterator(self):
        from itertools import islice
        from repro.cpu.fastpath_mix import (
            _TAIL_CACHE, _overflow_iterator, _tail_records,
        )
        w = workload("tailed", 21)
        want = list(islice(_overflow_iterator(w, 100), 500))
        # cold pass populates the cache, warm pass replays it
        assert list(islice(_tail_records(w, 100), 500)) == want
        assert len(_TAIL_CACHE) == 1
        (tail,) = _TAIL_CACHE.values()
        assert len(tail.pcs) >= 500
        assert list(islice(_tail_records(w, 100), 500)) == want
        # a second consumer interleaved mid-stream stays consistent too
        a, b = _tail_records(w, 100), _tail_records(w, 100)
        got = [next(a), next(b), next(a), next(b)]
        assert got == [want[0], want[0], want[1], want[1]]

    def test_seedless_workloads_are_not_cached(self):
        from itertools import islice
        from repro.cpu.fastpath_mix import _TAIL_CACHE, _tail_records

        class Anon:
            name = "anon"
            def generate(self):
                return iter([(i, i, 0, 0) for i in range(10)])

        assert list(islice(_tail_records(Anon(), 4), 3)) == [
            (4, 4, 0, 0), (5, 5, 0, 0), (6, 6, 0, 0)]
        assert not _TAIL_CACHE

    def test_twins_differing_in_a_knob_get_their_own_tails(self):
        # same name, suite and seed; only mean_gap differs, so the two
        # overflow streams differ and must not share one memo entry
        from itertools import islice
        from repro.cpu.fastpath_mix import (
            _TAIL_CACHE, _overflow_iterator, _tail_records,
        )
        dense = SyntheticWorkload("twin", "TEST", 7, [(lambda: Stream(0), 1 << 30)],
                                  mean_gap=1.0)
        sparse = SyntheticWorkload("twin", "TEST", 7, [(lambda: Stream(0), 1 << 30)],
                                   mean_gap=40.0)
        for w in (dense, sparse):
            want = list(islice(_overflow_iterator(w, 100), 300))
            assert list(islice(_tail_records(w, 100), 300)) == want
        assert len(_TAIL_CACHE) == 2

    def test_cap_falls_back_to_private_stream(self, monkeypatch):
        from itertools import islice
        from repro.cpu import fastpath_mix
        monkeypatch.setattr(fastpath_mix, "_TAIL_RECORD_CAP", 8)
        w = workload("capped", 22)
        want = list(islice(fastpath_mix._overflow_iterator(w, 10), 40))
        assert list(islice(fastpath_mix._tail_records(w, 10), 40)) == want
        (tail,) = fastpath_mix._TAIL_CACHE.values()
        assert len(tail.pcs) == 8

    def test_memo_holds_typed_columns(self):
        # the memo keeps the pack's column layout, not per-record tuples,
        # and serves the cached span record for record
        from itertools import islice
        from repro.cpu.fastpath_mix import (
            _TAIL_CACHE, _overflow_iterator, _tail_records,
        )
        w = workload("columns", 23)
        want = list(islice(_overflow_iterator(w, 50), 10_000))
        assert list(islice(_tail_records(w, 50), 9000)) == want[:9000]
        (tail,) = _TAIL_CACHE.values()
        columns = (tail.pcs, tail.vaddrs, tail.flags, tail.gaps)
        assert [type(c) for c in columns] == [array] * 4
        assert [c.typecode for c in columns] == ["Q", "Q", "H", "I"]
        assert list(zip(*columns)) == want[:len(tail.pcs)]
        # a warm pass crosses several served slices, then extends the memo
        assert list(islice(_tail_records(w, 50), 10_000)) == want
        assert list(zip(*columns)) == want

    def test_mix_results_identical_with_warm_tails(self):
        mix = [workload(f"m{i}", i + 40) for i in range(3)] + [qmm_workload()]
        cold = simulate_mix(mix, quick_config())
        warm = simulate_mix(mix, quick_config())
        assert [r.ipc for r in cold.results] == [r.ipc for r in warm.results]
