"""Span tracing: recording, drain/absorb across processes, Chrome trace export."""

import json

from repro.obs.tracing import (
    Tracer,
    current_tracer,
    install_tracer,
    trace_span,
    write_chrome_trace,
)


class TestTracerSlot:
    def test_trace_span_is_a_noop_without_a_tracer(self):
        assert current_tracer() is None
        with trace_span("anything", workload="astar"):
            pass  # must not raise, must not record anywhere

    def test_install_returns_previous(self):
        t = Tracer()
        assert install_tracer(t) is None
        try:
            assert current_tracer() is t
        finally:
            assert install_tracer(None) is t

    def test_trace_span_records_on_installed_tracer(self):
        t = Tracer(role="parent")
        install_tracer(t)
        try:
            with trace_span("pack", category="pack", workload="astar"):
                pass
        finally:
            install_tracer(None)
        (event,) = t.chrome_events()[1:]  # [0] is process_name metadata
        assert event["name"] == "pack"
        assert event["ph"] == "X"
        assert event["args"]["workload"] == "astar"
        assert event["dur"] >= 1


class TestDrainAbsorb:
    def test_drain_empty_buffer_returns_nothing(self):
        assert Tracer().drain() == []

    def test_drain_and_absorb_preserves_events_and_roles(self):
        worker = Tracer(role="worker")
        # a genuinely distinct worker process (same-pid tests would collapse
        # both lanes onto one process_name entry)
        worker.pid = 99_999
        with worker.span("drive", workload="astar"):
            pass
        with worker.span("collect", workload="astar"):
            pass
        events = worker.drain()
        assert len(worker) == 0  # buffer cleared

        parent = Tracer(role="parent")
        parent.absorb(events, pid=worker.pid, role=worker.role)
        names = [e["name"] for e in parent.chrome_events() if e["ph"] == "X"]
        assert names == ["drive", "collect"]
        # the worker's pid appears as its own named process lane
        lanes = {e["pid"]: e["args"]["name"]
                 for e in parent.chrome_events() if e["ph"] == "M"}
        assert lanes[99_999] == "repro-worker-99999"
        assert lanes[parent.pid].startswith("repro-parent-")

    def test_each_drain_hands_over_only_new_events(self):
        t = Tracer()
        drained = []
        for chunk in range(3):
            with t.span("chunk", index=chunk):
                pass
            drained.append(t.drain())
        assert [[e["args"]["index"] for e in events] for events in drained] == [[0], [1], [2]]


class TestChromeExport:
    def test_written_file_is_loadable_chrome_trace_json(self, tmp_path):
        t = Tracer(role="parent")
        with t.span("drive", workload="astar", mode="packed"):
            pass
        t.instant("cell-finish", index=0)
        out = tmp_path / "trace.json"
        count = t.write_chrome_trace(out)
        assert count == 2
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        for e in doc["traceEvents"]:
            assert {"name", "ph", "pid"} <= set(e)

    def test_write_chrome_trace_counts_only_real_events(self, tmp_path):
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {}},
            {"name": "s", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
        ]
        assert write_chrome_trace(events, tmp_path / "t.json") == 1
