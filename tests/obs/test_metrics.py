"""MetricsRegistry: instruments, snapshot/delta/merge, exporters."""

import pickle
import random

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    get_metrics,
    parse_prometheus,
    reset_metrics,
    summarize,
    to_json,
    to_prometheus,
)


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("x.hits", "help text")
        c.inc()
        c.inc(2, kind="a")
        c.inc(3, kind="a")
        assert c.value() == 1
        assert c.value(kind="a") == 5
        assert c.total() == 6

    def test_counter_label_order_is_irrelevant(self):
        c = MetricsRegistry().counter("x")
        c.inc(1, a="1", b="2")
        c.inc(1, b="2", a="1")
        assert c.value(a="1", b="2") == 2

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_gauge_set_and_add(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.add(-3)
        assert g.value() == 7
        g.set(2, pid="1")
        assert g.value(pid="1") == 2
        assert g.value() == 7

    def test_histogram_buckets_and_sum(self):
        h = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.55)

    def test_reset_keeps_instrument_references_alive(self):
        # instrumented modules cache instrument references; a forked worker's
        # reset_metrics() must not orphan them
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(5)
        reg.reset()
        assert c.value() == 0
        c.inc()
        assert reg.counter("x").value() == 1


class TestSnapshotDelta:
    def test_delta_subtracts_the_mark(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        h = reg.histogram("h", buckets=(1.0,))
        c.inc(2)
        h.observe(0.5)
        mark = reg.snapshot()
        c.inc(3)
        h.observe(2.0)
        delta = reg.snapshot().delta(mark)
        (value,) = delta.counters["c"]["series"].values()
        assert value == 3
        ((counts, count, total),) = delta.histograms["h"]["series"].values()
        assert count == 1 and counts == [0, 1] and total == pytest.approx(2.0)

    def test_unchanged_series_are_dropped_from_the_delta(self):
        reg = MetricsRegistry()
        reg.counter("quiet").inc(7)
        mark = reg.snapshot()
        delta = reg.snapshot().delta(mark)
        assert delta.counters == {} and delta.histograms == {}

    def test_snapshots_are_picklable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1, pid="9")
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(0.01)
        snap = pickle.loads(pickle.dumps(reg.snapshot()))
        assert snap.counters["c"]["series"] == {(("pid", "9"),): 1}


class TestMergeOrderIndependence:
    @staticmethod
    def _worker_delta(seed: int):
        """One synthetic worker's chunk delta."""
        reg = MetricsRegistry()
        rng = random.Random(seed)
        for _ in range(rng.randrange(1, 6)):
            reg.counter("cells").inc(pid=str(seed))
            reg.counter("cells").inc()  # shared unlabelled series
            reg.histogram("secs", buckets=(0.1, 1.0)).observe(rng.random() * 2)
        reg.gauge("bytes").set(rng.randrange(1000), pid=str(seed))
        return reg.snapshot()

    def test_merging_worker_deltas_in_any_order_is_identical(self):
        deltas = [self._worker_delta(seed) for seed in range(5)]
        exports = []
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            reg = MetricsRegistry()
            for i in order:
                reg.merge(deltas[i])
            exports.append(to_prometheus(reg.snapshot()))
        assert exports[0] == exports[1] == exports[2]

    def test_merge_is_associative_via_intermediate_registry(self):
        a, b, c = (self._worker_delta(s) for s in (10, 11, 12))
        flat = MetricsRegistry()
        for d in (a, b, c):
            flat.merge(d)
        staged = MetricsRegistry()
        mid = MetricsRegistry()
        mid.merge(b)
        mid.merge(c)
        staged.merge(a)
        staged.merge(mid.snapshot())
        assert to_prometheus(flat.snapshot()) == to_prometheus(staged.snapshot())

    def test_gauge_merge_latest_stamp_wins(self):
        early = MetricsRegistry()
        early.gauge("g").set(100)
        snap_early = early.snapshot()
        late = MetricsRegistry()
        late.gauge("g").set(1)
        snap_late = late.snapshot()
        for order in ((snap_early, snap_late), (snap_late, snap_early)):
            reg = MetricsRegistry()
            for s in order:
                reg.merge(s)
            assert reg.gauge("g").value() == 1  # later stamp, despite lower value


class TestExporters:
    @staticmethod
    def _populated():
        reg = MetricsRegistry()
        reg.counter("pack_cache.hits", "local hits").inc(3)
        reg.counter("grid.cells").inc(2, pid="7")
        reg.gauge("pack_cache.bytes").set(4096)
        h = reg.histogram("grid.cell_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(3.0)
        return reg.snapshot()

    def test_prometheus_text_shape(self):
        text = to_prometheus(self._populated())
        assert "# TYPE pack_cache_hits_total counter" in text
        assert "pack_cache_hits_total 3" in text
        assert 'grid_cells_total{pid="7"} 2' in text
        assert "pack_cache_bytes 4096" in text
        # cumulative buckets: 1, 2, 3 across the three bounds
        assert 'grid_cell_seconds_bucket{le="0.1"} 1' in text
        assert 'grid_cell_seconds_bucket{le="1.0"} 2' in text
        assert 'grid_cell_seconds_bucket{le="+Inf"} 3' in text
        assert "grid_cell_seconds_count 3" in text

    def test_prometheus_round_trip(self):
        text = to_prometheus(self._populated())
        samples = parse_prometheus(text)
        assert summarize(samples, "pack_cache_hits_total") == 3
        assert summarize(samples, "grid_cells_total", ("pid", "7")) == 2
        by_name = {s["name"] for s in samples}
        assert "grid_cell_seconds_sum" in by_name

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is { not a metric\n")

    def test_json_export(self):
        import json

        doc = json.loads(to_json(self._populated()))
        samples = {s["name"]: s for s in doc["samples"]}
        assert samples["pack_cache.hits"]["value"] == 3
        assert samples["grid.cell_seconds"]["count"] == 3
        assert samples["grid.cell_seconds"]["counts"] == [1, 1, 1]


class TestProcessWideRegistry:
    def test_get_metrics_returns_singleton_and_resets_in_place(self):
        reg = get_metrics()
        marker = reg.counter("test.only.marker")
        marker.inc(41)
        try:
            assert get_metrics() is reg
            reset_metrics()
            assert marker.value() == 0
        finally:
            reset_metrics()
