"""Observability layer: run journal, epoch timelines, and profiling probes.

One :class:`Observability` bundle is handed to
:func:`repro.cpu.simulator.simulate` (or the experiment runner / sweep
helpers) and wires up to three independent instruments:

* :class:`~repro.obs.timeline.TimelineRecorder` — per-epoch time series of
  the run's dynamics (IPC, MPKI deltas, page-cross activity, the filter's
  threshold and permit rate);
* :class:`~repro.obs.journal.RunJournal` — an append-only JSONL record per
  run: full config, workload identity + seed, result, wall time, host;
* :class:`~repro.obs.profiling.Probe` — a ``SIGPROF`` sampler that splits
  the record kernel's CPU time into named sections (front end, dTLB +
  walks, L1D hit path, miss path, prefetcher, page-cross filter, epoch
  hook, collect).

All three are strictly opt-in: a run without an `Observability` bundle
executes the exact unobserved hot path.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import monotonic
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.core.filter import PerceptronFilter
from repro.core.introspect import filter_state
from repro.obs.journal import (
    RunJournal,
    build_run_record,
    describe_config,
    describe_workload,
    host_info,
    read_journal,
)
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    get_metrics,
    reset_metrics,
    to_json,
    to_prometheus,
)
from repro.obs.profiling import Probe
from repro.obs.progress import GridProgress, ProgressSink, progress_printer
from repro.obs.timeline import TIMELINE_FIELDS, TimelineRecorder
from repro.obs.tracing import Tracer, current_tracer, install_tracer, trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policies import PageCrossPolicy
    from repro.cpu.core import CoreEngine
    from repro.cpu.simulator import SimConfig, SimResult

#: lightweight structured-event channel for subsystems without a journal in
#: hand (e.g. pack-cache evictions); opt in via standard logging config
_LOG = logging.getLogger("repro.obs")


def log_event(event: str, **fields: Any) -> None:
    """Emit one structured event on the ``repro.obs`` logger (DEBUG level).

    The record carries the event as real data, not just formatted text:
    ``record.event_name`` (str), ``record.event_fields`` (the keyword dict),
    and ``record.event_monotonic`` (a :func:`time.monotonic` stamp, so
    intervals between events survive wall-clock adjustments) ride on the
    ``LogRecord`` via ``extra=`` for any structured handler (JSON formatter,
    log forwarder) while plain handlers still render ``"<event> <fields>"``.
    """
    if _LOG.isEnabledFor(logging.DEBUG):
        _LOG.debug(
            "%s %s", event, fields,
            extra={
                "event_name": event,
                "event_fields": fields,
                "event_monotonic": monotonic(),
            },
        )


@dataclass
class Observability:
    """Per-run instrument bundle passed to ``simulate(..., obs=...)``."""

    timeline: Optional[TimelineRecorder] = None
    journal: Optional[RunJournal] = None
    #: sampled over each run's drive and collect (see ``simulate``)
    probe: Optional[Probe] = None
    #: retain the finished engine on `last_engine` (for filter inspection)
    keep_engine: bool = False
    #: merged into each journal record under the ``context`` key; callers
    #: (e.g. the runner) use it to attach the RunSpec or sweep coordinates
    context: dict[str, Any] = field(default_factory=dict)
    # per-run capture, refreshed by finish()
    last_engine: Optional["CoreEngine"] = None
    last_wall_seconds: float = 0.0
    last_filter_state: Optional[dict[str, Any]] = None
    runs: int = 0

    @contextmanager
    def scoped(self, **entries: Any) -> Iterator["Observability"]:
        """Temporarily add ``context`` entries for the duration of a run.

        The runner and sweep helpers tag each run with its grid coordinates
        (``spec``, ``sweep``) through this scope, so the keys cannot leak
        into later runs that reuse the same bundle — on exit the context is
        restored to exactly its previous contents (in place, preserving the
        dict's identity).
        """
        saved = dict(self.context)
        self.context.update(entries)
        try:
            yield self
        finally:
            self.context.clear()
            self.context.update(saved)

    def attach(self, engine: "CoreEngine", workload: Any) -> None:
        """Hook the instruments into a freshly built engine (pre-run)."""
        if self.timeline is not None:
            self.timeline.start_run(getattr(workload, "name", str(workload)))
            engine.epoch_listener = self.timeline.on_epoch

    def finish(
        self,
        engine: "CoreEngine",
        workload: Any,
        config: "SimConfig",
        result: "SimResult",
        wall_seconds: float,
        *,
        policy: Optional["PageCrossPolicy"] = None,
    ) -> None:
        """Capture end-of-run state and journal the run (post-run).

        ``policy`` is the run's own policy when a lockstep engine served it.
        """
        self.runs += 1
        self.last_wall_seconds = wall_seconds
        self.last_engine = engine if self.keep_engine else None
        if policy is None:
            policy = engine.policy
        self.last_filter_state = (
            filter_state(policy) if isinstance(policy, PerceptronFilter) else None)
        if self.journal is not None:
            self.journal.record(
                workload=workload,
                config=config,
                result=result,
                wall_seconds=wall_seconds,
                extra=self.context or None,
            )

    def close(self) -> None:
        """Flush/close any owned sinks (currently the journal)."""
        if self.journal is not None:
            self.journal.close()


__all__ = [
    "Observability",
    "log_event",
    "TimelineRecorder",
    "TIMELINE_FIELDS",
    "RunJournal",
    "read_journal",
    "build_run_record",
    "describe_config",
    "describe_workload",
    "host_info",
    "Probe",
    "MetricsRegistry",
    "MetricsSnapshot",
    "get_metrics",
    "reset_metrics",
    "to_prometheus",
    "to_json",
    "Tracer",
    "install_tracer",
    "current_tracer",
    "trace_span",
    "GridProgress",
    "ProgressSink",
    "progress_printer",
]
