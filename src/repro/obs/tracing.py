"""Span tracing across grid processes, exported as Chrome trace-event JSON.

A :class:`Tracer` records *complete* spans — ``(name, category, start,
duration, pid, tid, args)`` — for the coarse phases of a grid cell's life:
packing a trace, driving the simulation, collecting the result, and writing
the result cache.  Tracing is strictly opt-in: the process-wide slot
(:func:`install_tracer` / :func:`current_tracer`) defaults to ``None`` and
every instrumentation site checks it at span granularity (per cell / per
drive — never inside the per-record loops), so a run without a tracer
executes the exact unobserved hot path.

Cross-process discipline: grid workers install their own tracer, and after
every chunk :meth:`Tracer.drain` hands its buffered spans back with the
chunk's result (:mod:`repro.experiments.parallel`); the parent folds them
into its own tracer with :meth:`Tracer.absorb`.  The merged timeline is
written by :meth:`Tracer.write_chrome_trace` as a Chrome trace-event JSON
object — loadable in Perfetto / ``chrome://tracing`` — where each OS process
of the grid appears as its own ``pid`` lane with a ``process_name`` metadata
record.

Timestamps are wall-clock (``time.time_ns``-based) microseconds, so spans
recorded in different processes land on one consistent axis; durations are
measured with ``perf_counter`` for resolution.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, time_ns
from typing import Any, Iterator, Optional

__all__ = [
    "Tracer",
    "current_tracer",
    "install_tracer",
    "trace_span",
    "write_chrome_trace",
]

#: the process-wide tracer slot; ``None`` means tracing is off everywhere
_TRACER: Optional["Tracer"] = None


def install_tracer(tracer: Optional["Tracer"]) -> Optional["Tracer"]:
    """Install (or with ``None`` remove) the process-wide tracer.

    Returns the previously installed tracer so callers can restore it.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def current_tracer() -> Optional["Tracer"]:
    """The process-wide tracer, or ``None`` when tracing is off."""
    return _TRACER


@contextmanager
def trace_span(name: str, category: str = "sim", **args: Any) -> Iterator[None]:
    """Record a span on the installed tracer; a no-op without one.

    The off-path cost is one global read and one ``is None`` test per span
    site — span sites are per-cell / per-drive, never per-record.
    """
    tracer = _TRACER
    if tracer is None:
        yield
        return
    with tracer.span(name, category, **args):
        yield


class Tracer:
    """Buffers trace events in memory; drains them or writes a Chrome JSON.

    ``role`` names this process's lane in the merged trace (e.g. ``parent``
    or ``worker``); the ``pid`` is always the real OS pid so worker identity
    survives the merge.
    """

    def __init__(self, role: str = "parent"):
        self.role = role
        self.pid = os.getpid()
        self._events: list[dict[str, Any]] = []
        #: pid -> role, for process_name metadata in the merged trace
        self._roles: dict[int, str] = {self.pid: role}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "sim", **args: Any) -> Iterator[None]:
        """Time a block as one complete ("ph": "X") trace event."""
        ts = time_ns() // 1_000
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add_event({
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": ts,
                "dur": max(1, int((perf_counter() - t0) * 1e6)),
                "pid": self.pid,
                "tid": threading.get_native_id(),
                "args": args,
            })

    def instant(self, name: str, category: str = "grid", **args: Any) -> None:
        """Record a zero-duration instant event (cell landed, cache hit...)."""
        self.add_event({
            "name": name, "cat": category, "ph": "i", "s": "p",
            "ts": time_ns() // 1_000, "pid": self.pid,
            "tid": threading.get_native_id(), "args": args,
        })

    def add_event(self, event: dict[str, Any]) -> None:
        """Append one raw trace event (already in Chrome event form)."""
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    # -- drain / absorb (the cross-process seam) ---------------------------

    def drain(self) -> list[dict[str, Any]]:
        """Hand over the buffered events and clear the buffer."""
        events, self._events = self._events, []
        return events

    def absorb(self, events: list[dict[str, Any]], *, pid: int, role: str) -> None:
        """Fold another process's drained events (and its lane name) into this tracer."""
        self._roles.setdefault(pid, role)
        self._events.extend(events)

    # -- export ------------------------------------------------------------

    def chrome_events(self) -> list[dict[str, Any]]:
        """Buffered events plus process_name metadata, ready for export."""
        events: list[dict[str, Any]] = []
        for pid in sorted({e["pid"] for e in self._events} | set(self._roles)):
            role = self._roles.get(pid, "worker")
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"repro-{role}-{pid}"},
            })
        events.extend(self._events)
        return events

    def write_chrome_trace(self, path: str | Path) -> int:
        """Write the merged trace as Chrome trace-event JSON; returns #spans."""
        return write_chrome_trace(self.chrome_events(), path)


def write_chrome_trace(events: list[dict[str, Any]], path: str | Path) -> int:
    """Write trace events as a ``{"traceEvents": [...]}`` Chrome JSON file.

    Returns the number of non-metadata events written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.tracing"},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return sum(1 for e in events if e.get("ph") != "M")
