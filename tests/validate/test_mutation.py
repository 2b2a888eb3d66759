"""Mutation self-test: the checker must catch the re-introduced MSHR bug."""

from repro.mem.cache import Cache
from repro.params import CacheParams
from repro.validate import reintroduce_stale_mshr_bug
from repro.validate.differential import check_mutation_detected


def cache_with_completed_fill() -> Cache:
    c = Cache(CacheParams("test", 4 * 2 * 64, 2, 5, 8))
    c.miss(1, 0.0, lambda line, t, demand: 100.0 - t, True)  # completed by t=200
    c.miss(2, 0.0, lambda line, t, demand: 300.0 - t, True)  # still in flight at t=200
    return c


class TestShim:
    def test_shim_restores_stale_counting(self):
        c = cache_with_completed_fill()
        assert c.in_flight_misses(200.0) == 1
        with reintroduce_stale_mshr_bug():
            assert c.in_flight_misses(200.0) == 2  # counts the completed fill

    def test_shim_undone_on_exit(self):
        original = Cache.in_flight_misses
        with reintroduce_stale_mshr_bug():
            assert Cache.in_flight_misses is not original
        assert Cache.in_flight_misses is original

    def test_shim_undone_on_exception(self):
        original = Cache.in_flight_misses
        try:
            with reintroduce_stale_mshr_bug():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert Cache.in_flight_misses is original


class TestDetection:
    def test_checker_catches_reintroduced_bug(self):
        outcome = check_mutation_detected("astar", prefetcher="berti",
                                          warmup=500, sim=1500)
        assert outcome.passed, outcome.detail
        assert "mutation caught" in outcome.detail
