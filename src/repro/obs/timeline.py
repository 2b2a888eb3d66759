"""Epoch timeline recording: the per-epoch time series behind a run.

The paper's figures are end-of-run aggregates; the *dynamics* they argue
about (DRIPPER's threshold settling, permit-rate drift at phase changes,
sTLB-MPKI spikes) live at epoch granularity.  A :class:`TimelineRecorder`
hooks the engine's epoch boundary (``CoreEngine.epoch_listener``) and
samples one row per epoch: progress counters, MPKI deltas, page-cross
activity, and — when the policy is a perceptron filter — the adaptive
threshold and permit rate via :mod:`repro.core.introspect`.  Policies in
lockstep (DESIGN.md §17) share one run, whose columns are its leader's.

Rows are plain dicts in :data:`TIMELINE_FIELDS` order, exportable as JSONL
(one object per line) or CSV.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.ensemble import PolicyEnsemble
from repro.core.filter import PerceptronFilter
from repro.core.introspect import quick_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system_state import EpochStats
    from repro.cpu.core import CoreEngine

#: column order for CSV export (and the stable JSONL key set)
TIMELINE_FIELDS = (
    "run",
    "workload",
    "epoch",
    "policy",
    "measuring",
    "instructions",
    "total_instructions",
    "cycles",
    "ipc",
    "l1d_mpki",
    "stlb_mpki",
    "l1i_mpki",
    "llc_mpki",
    "rob_stall_fraction",
    "pgc_issued",
    "pgc_discarded",
    "pgc_useful",
    "pgc_useless",
    "threshold",
    "permit_rate",
    "cum_permit_rate",
    "vub_occupancy",
    "pub_occupancy",
)

_ROUND = 5


def _r(value: float) -> float:
    return round(value, _ROUND)


class TimelineRecorder:
    """Collects one row per finished epoch across one or more runs."""

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.rows: list[dict[str, Any]] = []
        self._run = -1
        self._workload = ""
        self._epoch = 0
        self._pgc_base = (0, 0)
        self._filter_base = (0, 0)

    def start_run(self, workload_name: str) -> None:
        """Begin a new run's timeline (resets per-run delta bases)."""
        self._run += 1
        self._workload = workload_name
        self._epoch = 0
        self._pgc_base = (0, 0)
        self._filter_base = (0, 0)

    # the engine calls this once per finished epoch (CoreEngine.epoch_listener)
    def on_epoch(self, engine: "CoreEngine", epoch: "EpochStats") -> None:
        """Sample one timeline row from a just-finished epoch."""
        self._epoch += 1
        issued, discarded = engine.pgc.issued, engine.pgc.discarded
        pgc_base = self._pgc_base
        self._pgc_base = (issued, discarded)

        policy = engine.policy
        if isinstance(policy, PolicyEnsemble):  # a lockstep drive: its leader's columns
            policy = policy.members[0]
        filter_row: dict[str, Any] = {
            "threshold": None,
            "permit_rate": None,
            "cum_permit_rate": None,
            "vub_occupancy": None,
            "pub_occupancy": None,
        }
        if isinstance(policy, PerceptronFilter):
            qs = quick_state(policy)
            d_pred = qs["predictions"] - self._filter_base[0]
            d_perm = qs["permits"] - self._filter_base[1]
            self._filter_base = (qs["predictions"], qs["permits"])
            filter_row = {
                "threshold": qs["threshold"],
                # per-epoch rate; falls back to the cumulative rate for
                # epochs in which the filter was never consulted
                "permit_rate": _r(d_perm / d_pred) if d_pred else _r(qs["permit_rate"]),
                "cum_permit_rate": _r(qs["permit_rate"]),
                "vub_occupancy": qs["vub_occupancy"],
                "pub_occupancy": qs["pub_occupancy"],
            }

        if (self._epoch - 1) % self.sample_every:
            return

        state = engine.system_state
        self.rows.append({
            "run": self._run,
            "workload": self._workload,
            "epoch": self._epoch,
            "policy": policy.name,
            "measuring": engine.measuring,
            "instructions": epoch.instructions,
            "total_instructions": engine.instructions,
            "cycles": _r(engine.retire_t),
            "ipc": _r(epoch.ipc),
            "l1d_mpki": _r(state.l1d_mpki),
            "stlb_mpki": _r(state.stlb_mpki),
            "l1i_mpki": _r(epoch.l1i_mpki),
            "llc_mpki": _r(epoch.llc_mpki),
            "rob_stall_fraction": _r(epoch.rob_stall_fraction),
            "pgc_issued": issued - pgc_base[0],
            "pgc_discarded": discarded - pgc_base[1],
            "pgc_useful": epoch.pgc_useful,
            "pgc_useless": epoch.pgc_useless,
            **filter_row,
        })

    # ------------------------------------------------------------------
    # export

    def __len__(self) -> int:
        return len(self.rows)

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per row; returns the row count."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")
        return len(self.rows)

    def write_csv(self, path: str) -> int:
        """Write the timeline as CSV in :data:`TIMELINE_FIELDS` order."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=TIMELINE_FIELDS, restval="")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        return len(self.rows)

    def write(self, path: str) -> int:
        """Write CSV when `path` ends in ``.csv``, JSONL otherwise."""
        if str(path).endswith(".csv"):
            return self.write_csv(path)
        return self.write_jsonl(path)
