"""Cross-process metrics: a process-wide registry of counters/gauges/histograms.

Every process — the parent driving a grid and each pool worker — owns one
:data:`REGISTRY` (via :func:`get_metrics`).  Subsystems register named
instruments once and bump them at *event* granularity (a pack-cache miss, a
pack-cache eviction, a finished grid cell): nothing in the per-record drive
loops touches the registry, so the telemetry contract of PR 1 holds — with
every sink disabled the simulator runs the exact unobserved hot path, and the
instrument updates that do happen are O(events), not O(records).

Cross-process discipline: a worker process takes a
:meth:`~MetricsRegistry.snapshot` *mark* before a chunk, computes the
:meth:`~MetricsSnapshot.delta` after it, and ships the delta back with the
chunk's results (and its journal records and spans); the parent folds every
delta into its own registry with :meth:`~MetricsRegistry.merge`.  Merging is commutative
and associative — counters and histograms add, gauges resolve by their
update stamp (latest wins, ties by value) — so the scheduling order of
worker chunks cannot change the merged totals.

Exporters: :func:`to_prometheus` (text exposition format, parseable by any
Prometheus scraper and by :func:`parse_prometheus` below) and
:func:`to_json`.
"""

from __future__ import annotations

import itertools
import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "REGISTRY",
    "get_metrics",
    "reset_metrics",
    "to_prometheus",
    "to_json",
    "parse_prometheus",
]

#: label sets are stored as sorted ``((key, value), ...)`` tuples — hashable,
#: picklable, and order-insensitive at the call site
LabelKey = tuple[tuple[str, str], ...]

#: default histogram buckets: wall-time-ish seconds (upper bounds; +Inf implied)
DEFAULT_BUCKETS = (0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: monotonically increasing stamp for gauge sets (process-local ordering;
#: cross-process ties resolve by value, see MetricsSnapshot.delta/merge)
_STAMP = itertools.count(1)


def _labels_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic accumulator (int or float increments)."""

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = _labels_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0 when never incremented)."""
        return self._values.get(_labels_key(labels), 0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())


class Gauge:
    """Point-in-time value; every ``set`` records an update stamp."""

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, tuple[float, int]] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_labels_key(labels)] = (value, next(_STAMP))

    def add(self, delta: float, **labels: Any) -> None:
        """Adjust the gauge relative to its current value."""
        key = _labels_key(labels)
        current = self._values.get(key, (0.0, 0))[0]
        self._values[key] = (current + delta, next(_STAMP))

    def value(self, **labels: Any) -> float:
        return self._values.get(_labels_key(labels), (0.0, 0))[0]


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` bounds)."""

    __slots__ = ("name", "help", "buckets", "_series")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        #: per-label-set: (per-bucket counts (+Inf last), total count, sum)
        self._series: dict[LabelKey, list] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _labels_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = [[0] * (len(self.buckets) + 1), 0, 0.0]
        series[0][bisect_left(self.buckets, value)] += 1
        series[1] += 1
        series[2] += value

    def count(self, **labels: Any) -> int:
        series = self._series.get(_labels_key(labels))
        return series[1] if series else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(_labels_key(labels))
        return series[2] if series else 0.0


@dataclass
class MetricsSnapshot:
    """Picklable, JSON-able dump of a registry's state at one instant.

    ``counters``/``gauges``/``histograms`` map metric name to
    ``{"help": ..., "series": {label_key: ...}}``; gauge series carry their
    update stamp, histogram series carry their bucket bounds.  Snapshots are
    plain data — safe to pickle across a process boundary and to diff/merge
    in any order.
    """

    counters: dict[str, dict[str, Any]] = field(default_factory=dict)
    gauges: dict[str, dict[str, Any]] = field(default_factory=dict)
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)

    def delta(self, mark: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot minus an earlier ``mark`` (counters/histograms).

        Gauges are point-in-time and pass through unchanged — a chunk's
        delta reports the gauge values as of the chunk's end, stamps intact,
        so merging deltas keeps latest-wins semantics.
        """
        out = MetricsSnapshot(gauges={k: _copy_metric(v) for k, v in self.gauges.items()})
        for name, metric in self.counters.items():
            old = mark.counters.get(name, {}).get("series", {})
            series = {
                key: value - old.get(key, 0)
                for key, value in metric["series"].items()
                if value != old.get(key, 0)
            }
            if series:
                out.counters[name] = {"help": metric["help"], "series": series}
        for name, metric in self.histograms.items():
            old = mark.histograms.get(name, {}).get("series", {})
            series = {}
            for key, (bucket_counts, count, total) in metric["series"].items():
                old_counts, old_count, old_sum = old.get(
                    key, ([0] * len(bucket_counts), 0, 0.0))
                if count != old_count:
                    series[key] = (
                        [n - o for n, o in zip(bucket_counts, old_counts)],
                        count - old_count, total - old_sum,
                    )
            if series:
                out.histograms[name] = {
                    "help": metric["help"], "buckets": metric["buckets"],
                    "series": series,
                }
        return out


def _copy_metric(metric: dict[str, Any]) -> dict[str, Any]:
    copied = dict(metric)
    copied["series"] = dict(metric["series"])  # gauge values are immutable tuples
    return copied


class MetricsRegistry:
    """One process's named instruments; snapshot/merge for grid workers."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration (idempotent: same name returns the same instrument) --

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name, help)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name, help)
        return metric

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, help, buckets)
        return metric

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Copy the registry's state into plain picklable data."""
        snap = MetricsSnapshot()
        for name, c in self._counters.items():
            if c._values:
                snap.counters[name] = {"help": c.help, "series": dict(c._values)}
        for name, g in self._gauges.items():
            if g._values:
                snap.gauges[name] = {"help": g.help, "series": dict(g._values)}
        for name, h in self._histograms.items():
            if h._series:
                snap.histograms[name] = {
                    "help": h.help, "buckets": h.buckets,
                    "series": {
                        key: (list(counts), count, total)
                        for key, (counts, count, total) in h._series.items()
                    },
                }
        return snap

    def merge(self, snap: MetricsSnapshot) -> None:
        """Fold a (delta) snapshot into this registry.

        Commutative and associative: counters and histogram series add;
        gauges keep the series with the higher update stamp (ties resolve
        to the larger value), so merging worker deltas in any completion
        order produces identical state.
        """
        for name, metric in snap.counters.items():
            counter = self.counter(name, metric.get("help", ""))
            for key, value in metric["series"].items():
                counter._values[key] = counter._values.get(key, 0) + value
        for name, metric in snap.gauges.items():
            gauge = self.gauge(name, metric.get("help", ""))
            for key, (value, stamp) in metric["series"].items():
                current = gauge._values.get(key)
                if current is None or (stamp, value) > (current[1], current[0]):
                    gauge._values[key] = (value, stamp)
        for name, metric in snap.histograms.items():
            hist = self.histogram(name, metric.get("help", ""),
                                  tuple(metric["buckets"]))
            for key, (counts, count, total) in metric["series"].items():
                series = hist._series.get(key)
                if series is None:
                    hist._series[key] = [list(counts), count, total]
                else:
                    series[0] = [a + b for a, b in zip(series[0], counts)]
                    series[1] += count
                    series[2] += total

    def reset(self) -> None:
        """Drop every recorded value (forked workers; tests).

        Instruments stay registered — a forked grid worker inherits the
        parent's counters copy-on-write, and resetting (rather than
        re-creating) them is what keeps merged grid metrics from
        double-counting the parent's warm-up work.
        """
        for c in self._counters.values():
            c._values.clear()
        for g in self._gauges.values():
            g._values.clear()
        for h in self._histograms.values():
            h._series.clear()


#: the process-wide registry every subsystem instruments against
REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide :data:`REGISTRY`."""
    return REGISTRY


def reset_metrics() -> None:
    """Reset the process-wide registry (forked workers; tests)."""
    REGISTRY.reset()


# ---------------------------------------------------------------------------
# exporters

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitise an internal dotted name into a legal Prometheus name."""
    name = _NAME_OK.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


def _prom_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_prometheus(snap: MetricsSnapshot) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    for name in sorted(snap.counters):
        metric = snap.counters[name]
        prom = _prom_name(name)
        if not prom.endswith("_total"):
            prom += "_total"
        if metric.get("help"):
            lines.append(f"# HELP {prom} {metric['help']}")
        lines.append(f"# TYPE {prom} counter")
        for key in sorted(metric["series"]):
            lines.append(f"{prom}{_prom_labels(key)} {_prom_value(metric['series'][key])}")
    for name in sorted(snap.gauges):
        metric = snap.gauges[name]
        prom = _prom_name(name)
        if metric.get("help"):
            lines.append(f"# HELP {prom} {metric['help']}")
        lines.append(f"# TYPE {prom} gauge")
        for key in sorted(metric["series"]):
            value, _stamp = metric["series"][key]
            lines.append(f"{prom}{_prom_labels(key)} {_prom_value(value)}")
    for name in sorted(snap.histograms):
        metric = snap.histograms[name]
        prom = _prom_name(name)
        if metric.get("help"):
            lines.append(f"# HELP {prom} {metric['help']}")
        lines.append(f"# TYPE {prom} histogram")
        bounds = list(metric["buckets"]) + [float("inf")]
        for key in sorted(metric["series"]):
            counts, count, total = metric["series"][key]
            cumulative = 0
            for bound, n in zip(bounds, counts):
                cumulative += n
                le = "+Inf" if bound == float("inf") else repr(float(bound))
                le_label = 'le="' + le + '"'
                lines.append(f"{prom}_bucket{_prom_labels(key, le_label)} {cumulative}")
            lines.append(f"{prom}_sum{_prom_labels(key)} {_prom_value(total)}")
            lines.append(f"{prom}_count{_prom_labels(key)} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(snap: MetricsSnapshot) -> str:
    """Render a snapshot as JSON (one sample object per labelled series)."""
    samples: list[dict[str, Any]] = []
    for name, metric in sorted(snap.counters.items()):
        for key, value in sorted(metric["series"].items()):
            samples.append({"name": name, "type": "counter",
                            "labels": dict(key), "value": value})
    for name, metric in sorted(snap.gauges.items()):
        for key, (value, _stamp) in sorted(metric["series"].items()):
            samples.append({"name": name, "type": "gauge",
                            "labels": dict(key), "value": value})
    for name, metric in sorted(snap.histograms.items()):
        for key, (counts, count, total) in sorted(metric["series"].items()):
            samples.append({
                "name": name, "type": "histogram", "labels": dict(key),
                "buckets": list(metric["buckets"]), "counts": list(counts),
                "count": count, "sum": total,
            })
    return json.dumps({"schema": 1, "samples": samples}, indent=2) + "\n"


_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)\s*$"
)
_PROM_LABEL = re.compile(r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:\\.|[^"\\])*)"')


def parse_prometheus(text: str) -> list[dict[str, Any]]:
    """Parse Prometheus exposition text into ``{name, labels, value}`` samples.

    Accepts everything :func:`to_prometheus` emits (used by ``repro status``
    and the CI artifact check); raises :class:`ValueError` on a malformed
    sample line.
    """
    samples = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _PROM_LINE.match(line)
        if m is None:
            raise ValueError(f"malformed Prometheus sample on line {lineno}: {line!r}")
        raw = m.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        labels = {
            lm.group("k"): lm.group("v").replace('\\"', '"').replace("\\\\", "\\")
            for lm in _PROM_LABEL.finditer(m.group("labels") or "")
        }
        samples.append({"name": m.group("name"), "labels": labels, "value": value})
    return samples


def summarize(samples: Iterable[dict[str, Any]],
              name: str, label: Optional[tuple[str, str]] = None) -> float:
    """Sum the values of every parsed sample matching ``name`` (and label)."""
    total = 0.0
    for sample in samples:
        if sample["name"] != name:
            continue
        if label is not None and sample["labels"].get(label[0]) != label[1]:
            continue
        total += sample["value"]
    return total
