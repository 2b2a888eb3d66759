"""Packed trace buffers: generator equality, window sizing, caching, replay."""

import gc
import random
from array import array
from dataclasses import replace

import pytest

from repro.core.policies import DiscardPgc
from repro.cpu.simulator import SimConfig, simulate
from repro.validate import result_diff
from repro.workloads import by_name
from repro.workloads.packed import (
    PackedTrace,
    PackedWorkload,
    clear_pack_cache,
    get_packed,
    pack_cache_stats,
)
from repro.workloads import packed as packed_module
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import BRANCH, DEPENDS, LOAD, MISPREDICT, STORE
from repro.workloads.trace_io import FileWorkload, snapshot_workload


class HighGapWorkload:
    """Records whose gaps overshoot the warm-up boundary (window edge case)."""

    name = "highgap"
    suite = "TEST"

    def __init__(self, records=60, gap=999):
        self.records = records
        self.gap = gap

    def generate(self):
        for i in range(self.records):
            yield 0x400, 0x1000 + (i % 8) * 64, 1, self.gap


class TestPackedTrace:
    def test_records_match_generator_prefix(self):
        w = by_name("astar")
        packed = PackedTrace.from_workload(w, 2_000, 6_000)
        gen = w.generate()
        assert len(packed) > 0
        for record in packed.records():
            assert record == tuple(next(gen))

    def test_packing_is_deterministic(self):
        w = by_name("astar")
        a = PackedTrace.from_workload(w, 2_000, 6_000)
        b = PackedTrace.from_workload(w, 2_000, 6_000)
        assert a.pcs == b.pcs
        assert a.vaddrs == b.vaddrs
        assert a.flags == b.flags
        assert a.gaps == b.gaps

    def test_window_covers_warmup_overshoot(self):
        # each record spans 1000 instructions, so the warm-up boundary is
        # overshot by 500: measurement starts at 2000, not 1500, and the
        # pack must reach 2000 + sim, not warmup + sim
        w = HighGapWorkload()
        packed = PackedTrace.from_workload(w, 1_500, 3_000)
        assert packed.complete
        assert packed.instructions >= 2_000 + 3_000

    def test_incomplete_pack_flagged(self):
        packed = PackedTrace.from_workload(HighGapWorkload(records=3), 1_500, 9_000)
        assert not packed.complete

    def test_replay_is_restartable(self):
        packed = PackedTrace.from_workload(by_name("astar"), 1_000, 2_000)
        replay = packed.replay()
        assert isinstance(replay, PackedWorkload)
        assert list(replay.generate()) == list(replay.generate())

    def test_snapshot_pack_roundtrip(self, tmp_path):
        # snapshot to the native on-disk format, reload, pack: the packed
        # columns must reproduce the file's records exactly
        path = tmp_path / "snap.rptr"
        snapshot_workload(by_name("hmmer"), path, instructions=4_000)
        w = FileWorkload(path)
        packed = PackedTrace.from_workload(w, 500, 2_000)
        assert list(packed.records()) == list(w.generate())[: len(packed)]


class TestPackIndex:
    """The byte-plane masks equal a plain per-record loop over the columns."""

    @staticmethod
    def reference(packed):
        cum, total, masks = [], 0, {k: [] for k in (
            "event", "iline_change", "page_change", "line_change",
            "load", "store", "branch", "mispredict")}
        prev_pc = prev_va = None
        for pc, va, fl, gap in packed.records():
            total += 1 + gap
            cum.append(total)
            row = {
                "event": bool(fl & (BRANCH | MISPREDICT | DEPENDS))
                or not fl & (LOAD | STORE) or gap > 15,
                "iline_change": prev_pc is None or pc >> 6 != prev_pc >> 6,
                "page_change": prev_va is None or va >> 12 != prev_va >> 12,
                "line_change": prev_va is None or va >> 6 != prev_va >> 6,
                "load": fl & LOAD, "store": fl & STORE,
                "branch": fl & BRANCH, "mispredict": fl & MISPREDICT,
            }
            for key, value in row.items():
                masks[key].append(1 if value else 0)
            prev_pc, prev_va = pc, va
        return cum, {k: bytes(v) for k, v in masks.items()}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1000])
    def test_masks_match_loop(self, n):
        rng = random.Random(n)
        wide = lambda: rng.getrandbits(rng.choice([3, 7, 13, 20, 40, 64]))
        packed = PackedTrace(
            "random", "TEST",
            array("Q", (wide() for _ in range(n))),
            array("Q", (wide() for _ in range(n))),
            array("H", (rng.getrandbits(16) for _ in range(n))),
            array("I", (rng.choice([0, 15, 16, 255, 256, 2**32 - 1])
                        for _ in range(n))),
            warmup=0, sim=0, instructions=0, complete=True)
        cum, masks = self.reference(packed)
        idx = packed.index()
        assert list(idx.cum) == cum
        for key, mask in masks.items():
            assert getattr(idx, key) == mask, key

    def test_masks_match_loop_on_a_workload(self):
        packed = PackedTrace.from_workload(by_name("astar"), 2_000, 6_000)
        cum, masks = self.reference(packed)
        idx = packed.index()
        assert list(idx.cum) == cum
        assert {k: getattr(idx, k) for k in masks} == masks


def twin(mean_gap):
    """A seeded workload that differs from its twin only in ``mean_gap``."""
    return SyntheticWorkload("twin", "TEST", 1, by_name("astar").phases, mean_gap=mean_gap)


class TestWorkloadIdentity:
    CONFIG = SimConfig(policy_factory=DiscardPgc, warmup_instructions=1_000,
                       sim_instructions=3_000)

    def test_twins_differing_in_a_knob_get_their_own_packs(self):
        clear_pack_cache()
        dense, sparse = twin(3.0), twin(30.0)
        packs = [get_packed(w, 1_000, 3_000) for w in (dense, sparse)]
        assert packs[0] is not packs[1]
        for w, pack in zip((dense, sparse), packs):
            assert list(pack.records()) == list(
                PackedTrace.from_workload(w, 1_000, 3_000).records())
            assert result_diff(simulate(w, self.CONFIG),
                               simulate(w, replace(self.CONFIG, packed=True))) == {}
        clear_pack_cache()

    def test_workload_without_identity_packs_on_every_call(self):
        clear_pack_cache()
        w = HighGapWorkload()
        size = pack_cache_stats()["size"]
        for _ in range(2):
            misses = pack_cache_stats()["misses"]
            get_packed(w, 1_500, 3_000)
            assert pack_cache_stats()["misses"] == misses + 1
            assert pack_cache_stats()["size"] == size
        config = replace(self.CONFIG, warmup_instructions=1_500)
        assert result_diff(simulate(w, config),
                           simulate(w, replace(config, packed=True))) == {}


class SlottedWorkload:
    """No seed/path and no ``__weakref__`` slot: an identity-less workload
    that could not even be tracked by object lifetime."""

    __slots__ = ("records", "gap")
    name = "slotted"
    suite = "TEST"

    def __init__(self, records=60, gap=999):
        self.records = records
        self.gap = gap

    def generate(self):
        for i in range(self.records):
            yield 0x400, 0x1000 + (i % 8) * 64, 1, self.gap


class TestAnonymousPackIdentity:
    def test_entry_dies_with_workload(self):
        # an identity-less workload leaves no entry behind, alive or dead
        clear_pack_cache()
        w = HighGapWorkload()
        get_packed(w, 1_500, 3_000)
        assert pack_cache_stats()["size"] == 0
        del w
        gc.collect()
        assert pack_cache_stats()["size"] == 0
        assert packed_module._PACK_CACHE == {}
        clear_pack_cache()

    def test_unweakrefable_workload_served_uncached(self):
        clear_pack_cache()
        w = SlottedWorkload()
        first = get_packed(w, 1_500, 3_000)
        assert pack_cache_stats()["size"] == 0
        assert get_packed(w, 1_500, 3_000) is not first
        assert len(first) > 0
        clear_pack_cache()


class TestBytesGauge:
    def _gauge_value(self):
        from repro.obs.metrics import get_metrics

        return get_metrics().gauge("pack_cache.bytes").value()

    def _resident_bytes(self):
        return sum(p.nbytes() for p in packed_module._PACK_CACHE.values())

    def test_gauge_tracks_insert_evict_resize_clear(self, bounded_cache, monkeypatch):
        w = by_name("astar")
        get_packed(w, 1_000, 2_000)
        assert self._gauge_value() == self._resident_bytes() > 0
        get_packed(w, 1_000, 3_000)
        assert self._gauge_value() == self._resident_bytes()
        get_packed(w, 1_000, 4_000)  # capacity 2: evicts the oldest
        assert self._gauge_value() == self._resident_bytes()
        monkeypatch.setattr(packed_module, "_CACHE_CAPACITY", 1)
        get_packed(w, 1_000, 5_000)  # the next insert evicts down to the new bound
        assert pack_cache_stats()["size"] == 1
        assert self._gauge_value() == self._resident_bytes()
        clear_pack_cache()
        assert self._gauge_value() == 0
        assert packed_module._CACHE_BYTES == 0

    def test_anonymous_death_updates_gauge(self):
        # an uncached pack never enters the gauge, so its workload's death
        # has nothing to take out of it
        clear_pack_cache()
        w = HighGapWorkload()
        assert len(get_packed(w, 1_500, 3_000)) > 0
        assert self._gauge_value() == self._resident_bytes() == 0
        del w
        gc.collect()
        assert self._gauge_value() == 0
        clear_pack_cache()


class TestPackCache:
    def test_get_packed_caches_by_window(self):
        clear_pack_cache()
        w = by_name("astar")
        first = get_packed(w, 1_000, 2_000)
        assert get_packed(w, 1_000, 2_000) is first
        assert get_packed(w, 1_000, 3_000) is not first
        clear_pack_cache()
        assert get_packed(w, 1_000, 2_000) is not first


@pytest.fixture
def bounded_cache(monkeypatch):
    """A two-entry pack cache, restored (with a clean cache) afterwards."""
    monkeypatch.setattr(packed_module, "_CACHE_CAPACITY", 2)
    clear_pack_cache()
    yield
    clear_pack_cache()


class TestPackCacheCapacity:
    def test_lru_eviction_at_capacity(self, bounded_cache):
        w = by_name("astar")
        before = pack_cache_stats()["evictions"]
        oldest = get_packed(w, 1_000, 2_000)
        get_packed(w, 1_000, 3_000)
        get_packed(w, 1_000, 4_000)  # capacity 2: evicts the oldest window
        stats = pack_cache_stats()
        assert stats["size"] == 2
        assert stats["capacity"] == 2
        assert stats["evictions"] == before + 1
        assert get_packed(w, 1_000, 2_000) is not oldest  # was evicted

    def test_recent_use_protects_from_eviction(self, bounded_cache):
        w = by_name("astar")
        first = get_packed(w, 1_000, 2_000)
        get_packed(w, 1_000, 3_000)
        assert get_packed(w, 1_000, 2_000) is first  # moves to MRU
        get_packed(w, 1_000, 4_000)  # evicts the 3_000 window instead
        assert get_packed(w, 1_000, 2_000) is first

    def test_eviction_emits_obs_event(self, bounded_cache, caplog):
        import logging

        w = by_name("astar")
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            get_packed(w, 1_000, 2_000)
            get_packed(w, 1_000, 3_000)
            get_packed(w, 1_000, 4_000)
        events = [r for r in caplog.records if "pack-cache-eviction" in r.message]
        assert len(events) == 1
        assert "'workload': 'astar'" in events[0].message


class TestPackedSimulation:
    def test_packed_drive_matches_generator(self):
        w = by_name("astar")
        base = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=4_000, sim_instructions=10_000
        )
        packed = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=4_000, sim_instructions=10_000,
            packed=True,
        )
        assert result_diff(simulate(w, base), simulate(w, packed)) == {}

    def test_packed_drive_matches_generator_high_gap(self):
        # gap overshoot exercises the fast path's epoch/measurement seams
        base = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=1_500, sim_instructions=3_000
        )
        packed = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=1_500, sim_instructions=3_000,
            packed=True,
        )
        gen_result = simulate(HighGapWorkload(), base)
        packed_result = simulate(HighGapWorkload(), packed)
        assert result_diff(gen_result, packed_result) == {}

    def test_packed_replay_through_generator_drive_matches(self):
        # a PackedWorkload pushed through the *generator* drive loop must
        # also reproduce the original run (the pack is a faithful prefix)
        w = by_name("astar")
        config = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=2_000, sim_instructions=6_000
        )
        packed = get_packed(w, 2_000, 6_000)
        assert result_diff(simulate(w, config), simulate(packed.replay(), config)) == {}

    def _file_workload(self, tmp_path, instructions):
        path = tmp_path / "trace.rptr"
        snapshot_workload(by_name("astar"), path, instructions=instructions)
        return FileWorkload(path)

    @staticmethod
    def _config(warmup, sim, packed=False):
        return SimConfig(policy_factory=DiscardPgc, warmup_instructions=warmup,
                         sim_instructions=sim, packed=packed)

    def test_file_trace_window_matches_generator(self, tmp_path):
        w = self._file_workload(tmp_path, instructions=12_000)
        generator = simulate(w, self._config(1_000, 3_000))
        packed = simulate(w, self._config(1_000, 3_000, packed=True))
        assert result_diff(generator, packed) == {}

    def test_file_trace_truncated_window_same_error(self, tmp_path):
        # the snapshot ends mid-measurement: both paths must raise the same
        # truncation error, not silently under-measure
        w = self._file_workload(tmp_path, instructions=4_000)
        with pytest.raises(ValueError, match="truncating") as generator:
            simulate(w, self._config(2_000, 6_000))
        with pytest.raises(ValueError, match="truncating") as packed:
            simulate(w, self._config(2_000, 6_000, packed=True))
        assert str(packed.value) == str(generator.value)


class TestPrefetchStream:
    WINDOW = (2_000, 6_000)

    def test_stream_matches_a_fresh_prefetcher(self):
        from repro.prefetch import make_l1d_prefetcher
        from repro.vm.address import VA_MASK
        from repro.workloads.trace import LOAD, STORE

        packed = PackedTrace.from_workload(by_name("astar"), *self.WINDOW)
        stream = packed.prefetch_stream("berti")
        berti = make_l1d_prefetcher("berti")
        expected, ends = [], []
        for pc, vaddr, flag, _gap in packed.records():
            if flag & (LOAD | STORE):
                expected += [(r.vaddr & VA_MASK, r.delta, r.meta)
                             for r in berti.on_access(pc, vaddr, True, 0.0)]
                ends.append(len(expected))
        assert list(stream.ends) == ends
        assert list(zip(stream.targets, stream.deltas, stream.ranks)) == expected
        assert len(stream) == len(expected) > 0
        assert stream.nbytes() == 4 * len(ends) + 8 * len(expected) + 2 * len(expected)

    def test_cached_per_prefetcher_and_storage(self):
        packed = PackedTrace.from_workload(by_name("astar"), *self.WINDOW)
        stream = packed.prefetch_stream("berti")
        assert packed.prefetch_stream("berti") is stream
        assert packed.prefetch_stream("berti", 1475) is not stream
        assert packed.prefetch_stream("ipcp") is not stream

    def test_equality_is_column_for_column(self):
        # what lets an ISO config share Permit's lockstep drive
        packed = PackedTrace.from_workload(by_name("astar"), *self.WINDOW)
        stream = packed.prefetch_stream("berti")
        again = PackedTrace.from_workload(by_name("astar"), *self.WINDOW).prefetch_stream("berti")
        assert again is not stream and again == stream
        assert packed.prefetch_stream("berti", 1475) == stream
        assert packed.prefetch_stream("ipcp") != stream
        assert stream != list(stream.targets)

    def test_non_replayable_prefetcher_rejected(self):
        packed = PackedTrace.from_workload(by_name("astar"), *self.WINDOW)
        with pytest.raises(ValueError, match="replayable"):
            packed.prefetch_stream("berti-timely")

    def test_built_at_first_drive_not_at_packing(self):
        w = by_name("hmmer")
        packed = get_packed(w, *self.WINDOW)
        assert packed._streams == {}
        simulate(w, SimConfig(prefetcher="bop", warmup_instructions=self.WINDOW[0],
                              sim_instructions=self.WINDOW[1], packed=True))
        assert set(packed._streams) == {("bop", 0)}


class TestStreamReplay:
    """simulate() replays factory-built replayable prefetchers, and only those."""

    def config(self, **overrides):
        return replace(SimConfig(prefetcher="berti", warmup_instructions=2_000,
                                 sim_instructions=6_000, packed=True), **overrides)

    def sources(self):
        from repro.obs.metrics import get_metrics

        counter = get_metrics().counter("sim.prefetch_streams")
        return counter.value(source="replayed"), counter.value(source="live")

    def counted(self, run):
        replayed, live = self.sources()
        result = run()
        after = self.sources()
        return result, (after[0] - replayed, after[1] - live)

    def test_replayed_run_matches_generator(self):
        w = by_name("astar")
        generator = simulate(w, self.config(packed=False))
        replayed, counted = self.counted(lambda: simulate(w, self.config()))
        assert counted == (1, 0)
        assert result_diff(generator, replayed) == {}

    def test_non_replayable_prefetcher_stays_live(self):
        w = by_name("astar")
        _, counted = self.counted(
            lambda: simulate(w, self.config(prefetcher="berti-timely")))
        assert counted == (0, 1)

    def test_profiled_run_is_fused_and_replays(self):
        from repro.obs import Observability
        from repro.obs.metrics import get_metrics
        from repro.obs.profiling import Probe

        w = by_name("astar")
        plain = simulate(w, self.config())  # records the stream
        drives = get_metrics().counter("sim.drives")
        fused = drives.value(mode="fused")
        obs = Observability(probe=Probe())
        profiled, counted = self.counted(lambda: simulate(w, self.config(), obs=obs))
        assert counted == (1, 0)
        assert drives.value(mode="fused") == fused + 1
        assert result_diff(plain, profiled) == {}
