"""Cache model: residency, LRU, MSHRs, PCB events, usefulness accounting."""

from hypothesis import given, settings, strategies as st

from repro.mem.cache import Cache
from repro.params import CacheParams


def small_cache(sets=4, ways=2, mshr=4, writeback=None) -> Cache:
    params = CacheParams("test", sets * ways * 64, ways, 5, mshr)
    return Cache(params, writeback=writeback)


class Listener:
    def __init__(self):
        self.hits: list[int] = []
        self.evictions: list[int] = []

    def on_pcb_hit(self, line):
        self.hits.append(line)

    def on_pcb_evict_unused(self, line):
        self.evictions.append(line)


class TestResidency:
    def test_miss_then_hit_after_fill(self):
        c = small_cache()
        assert c.lookup(1, 0.0) is None
        c.fill(1, 0.0, 5.0)
        assert c.lookup(1, 1.0) is not None

    def test_probe_does_not_perturb(self):
        c = small_cache()
        c.probe(1)
        assert c.stats.accesses == 0

    def test_lru_eviction_within_set(self):
        c = small_cache(sets=4, ways=2)
        a, b, d = 0, 4, 8  # same set
        c.fill(a, 0.0, 0.0)
        c.fill(b, 0.0, 0.0)
        c.lookup(a, 1.0)  # b becomes LRU
        c.fill(d, 2.0, 2.0)
        assert c.probe(a) is not None
        assert c.probe(b) is None

    def test_refill_keeps_earliest_ready(self):
        c = small_cache()
        c.fill(1, 0.0, 100.0)
        c.fill(1, 0.0, 50.0)
        assert c.probe(1).ready == 50.0
        c.fill(1, 0.0, 200.0)
        assert c.probe(1).ready == 50.0

    def test_invalidate(self):
        c = small_cache()
        c.fill(1, 0.0, 0.0)
        c.invalidate(1)
        assert c.probe(1) is None

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    @settings(max_examples=30)
    def test_occupancy_never_exceeds_capacity(self, lines):
        c = small_cache(sets=4, ways=2)
        for line in lines:
            c.fill(line, 0.0, 0.0)
            assert c.occupancy() <= 8

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    @settings(max_examples=30)
    def test_most_recent_fill_always_resident(self, lines):
        c = small_cache(sets=4, ways=2)
        for line in lines:
            c.fill(line, 0.0, 0.0)
        assert c.probe(lines[-1]) is not None


def in_flight(c: Cache, line: int, t: float, ready: float) -> tuple[float, bool]:
    """Miss on `line` at `t` through a stub lower level whose fill is ready at `ready`."""
    return c.miss(line, t, lambda line, t, demand: ready - t, True)


class TestMshr:
    def test_miss_fills_at_lower_ready_time(self):
        c = small_cache()
        assert in_flight(c, 1, 0.0, 100.0) == (100.0, False)
        assert c.probe(1).ready == 100.0

    def test_merge_returns_ready_time(self):
        c = small_cache()
        in_flight(c, 1, 0.0, 100.0)
        c.invalidate(1)
        assert in_flight(c, 1, 50.0, 999.0) == (100.0, True)

    def test_merge_expires(self):
        c = small_cache()
        in_flight(c, 1, 0.0, 100.0)
        c.invalidate(1)
        assert in_flight(c, 1, 150.0, 400.0) == (400.0, False)

    def test_no_delay_under_capacity(self):
        c = small_cache(mshr=4)
        for line in range(3):
            in_flight(c, line, 0.0, 100.0)
        assert c.mshr_delay(1.0) == 0.0

    def test_delay_when_full(self):
        c = small_cache(mshr=2)
        in_flight(c, 1, 0.0, 100.0)
        in_flight(c, 2, 0.0, 120.0)
        assert c.mshr_delay(10.0) == 90.0  # waits for the 100-cycle entry

    def test_full_mshr_delays_the_issue(self):
        c = small_cache(mshr=2)
        in_flight(c, 1, 0.0, 100.0)
        in_flight(c, 2, 0.0, 120.0)
        issued = []
        c.miss(3, 10.0, lambda line, t, demand: issued.append(t) or 50.0, True)
        assert issued == [100.0 + c.latency]  # a free MSHR at 100, then the tag lookup

    def test_full_mshr_drains_over_time(self):
        c = small_cache(mshr=2)
        in_flight(c, 1, 0.0, 100.0)
        in_flight(c, 2, 0.0, 120.0)
        assert c.mshr_delay(130.0) == 0.0

    def test_in_flight_count(self):
        c = small_cache(mshr=8)
        for line in range(5):
            in_flight(c, line, 0.0, 100.0)
        assert c.in_flight_misses(50.0) == 5

    def test_in_flight_excludes_completed_fills(self):
        # the pre-fix implementation reported the raw heap length, which
        # kept counting entries whose fill had already completed
        c = small_cache(mshr=8)
        in_flight(c, 1, 0.0, 100.0)
        in_flight(c, 2, 0.0, 300.0)
        assert c.in_flight_misses(200.0) == 1
        assert c.in_flight_misses(300.0) == 0

    def test_in_flight_dedupes_reregistered_lines(self):
        c = small_cache(mshr=8)
        in_flight(c, 1, 0.0, 100.0)
        c.invalidate(1)
        # the first fetch has completed: expire it and fetch again
        assert in_flight(c, 1, 150.0, 400.0) == (400.0, False)
        assert c.in_flight_misses(200.0) == 1


class TestPcbEvents:
    def test_first_demand_hit_fires_listener_once(self):
        c = small_cache()
        c.listener = listener = Listener()
        c.fill(1, 0.0, 0.0, prefetched=True, pcb=True)
        c.lookup(1, 1.0)
        c.lookup(1, 2.0)
        assert listener.hits == [1]

    def test_unused_pcb_eviction_fires_listener(self):
        c = small_cache(sets=4, ways=1)
        c.listener = listener = Listener()
        c.fill(0, 0.0, 0.0, prefetched=True, pcb=True)
        c.fill(4, 1.0, 1.0)  # same set, evicts the PCB block
        assert listener.evictions == [0]

    def test_used_pcb_eviction_silent(self):
        c = small_cache(sets=4, ways=1)
        c.listener = listener = Listener()
        c.fill(0, 0.0, 0.0, prefetched=True, pcb=True)
        c.lookup(0, 1.0)
        c.fill(4, 2.0, 2.0)
        assert listener.evictions == []

    def test_non_pcb_prefetch_does_not_fire_listener(self):
        c = small_cache(sets=4, ways=1)
        c.listener = listener = Listener()
        c.fill(0, 0.0, 0.0, prefetched=True, pcb=False)
        c.fill(4, 1.0, 1.0)
        assert listener.evictions == []
        assert c.prefetch_useless == 1


class TestUsefulnessAccounting:
    def test_useful_counted_on_first_hit(self):
        c = small_cache()
        c.fill(1, 0.0, 0.0, prefetched=True, pcb=True)
        c.lookup(1, 1.0)
        assert c.prefetch_useful == 1
        assert c.pgc_useful == 1

    def test_useless_counted_on_eviction(self):
        c = small_cache(sets=4, ways=1)
        c.fill(0, 0.0, 0.0, prefetched=True, pcb=True)
        c.fill(4, 1.0, 1.0)
        assert c.prefetch_useless == 1
        assert c.pgc_useless == 1

    def test_finalize_counts_resident_unused(self):
        c = small_cache()
        c.fill(1, 0.0, 0.0, prefetched=True, pcb=True)
        c.fill(2, 0.0, 0.0, prefetched=True)
        c.finalize()
        assert c.prefetch_useless == 2
        assert c.pgc_useless == 1

    def test_finalize_idempotent(self):
        c = small_cache()
        c.fill(1, 0.0, 0.0, prefetched=True)
        c.finalize()
        c.finalize()
        assert c.prefetch_useless == 1

    def test_measured_prefetch_respects_snapshot(self):
        c = small_cache()
        c.fill(1, 0.0, 0.0, prefetched=True)
        c.snapshot()
        c.fill(2, 0.0, 0.0, prefetched=True)
        assert c.measured_prefetch["fills"] == 1


class TestWriteback:
    def test_dirty_eviction_invokes_callback(self):
        written = []
        c = small_cache(sets=4, ways=1, writeback=lambda line, t: written.append(line))
        c.fill(0, 0.0, 0.0)
        c.probe(0).dirty = True
        c.fill(4, 1.0, 1.0)
        assert written == [0]

    def test_clean_eviction_no_callback(self):
        written = []
        c = small_cache(sets=4, ways=1, writeback=lambda line, t: written.append(line))
        c.fill(0, 0.0, 0.0)
        c.fill(4, 1.0, 1.0)
        assert written == []


class TestDemandStats:
    def test_prefetch_lookup_not_in_demand_stats(self):
        c = small_cache()
        c.lookup(1, 0.0, demand=False)
        assert c.stats.accesses == 1
        assert c.demand_stats.accesses == 0
