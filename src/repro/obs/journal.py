"""Run journal: an append-only JSONL audit log of simulation runs.

Every journaled run becomes one self-contained JSON object: the full
configuration (including all hardware parameters), the workload identity
and seed, the final :class:`~repro.cpu.simulator.SimResult`, wall-clock
duration, and host info.  Sweeps therefore leave an auditable artifact —
any reported number can be traced back to the exact knobs that produced it,
and wall-time baselines accumulate for free.
"""

from __future__ import annotations

import json
import os
import platform
import socket
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    # annotation-only: a runtime import would make `repro.obs` depend on
    # `repro.cpu`, and the low-level packages (workloads.packed, cpu.simulator)
    # import `repro.obs.metrics` at module top — keeping this lazy is what
    # lets the obs package sit below everything it instruments
    from repro.cpu.simulator import SimConfig, SimResult

#: bump when the record layout changes incompatibly
SCHEMA_VERSION = 1


def host_info() -> dict[str, Any]:
    """Identity of the machine/interpreter that produced a record."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "pid": os.getpid(),
    }


def describe_workload(workload: Any) -> dict[str, Any]:
    """Workload identity: name, suite, and the seed that fixes its trace."""
    return {
        "name": getattr(workload, "name", str(workload)),
        "suite": getattr(workload, "suite", None),
        "seed": getattr(workload, "seed", None),
        "mean_gap": getattr(workload, "mean_gap", None),
    }


def describe_config(config: SimConfig, *, policy_name: Optional[str] = None) -> dict[str, Any]:
    """JSON-safe dump of a :class:`SimConfig`, hardware parameters included.

    ``policy_factory`` is a callable; pass `policy_name` (e.g. from the
    finished run's result) to record which policy it built.
    """
    factory = config.policy_factory
    if policy_name is None:
        policy_name = getattr(factory, "name", None) or getattr(factory, "__name__", repr(factory))
    dump = {
        "prefetcher": config.prefetcher,
        "policy": policy_name,
        "l2_prefetcher": config.l2_prefetcher,
        "warmup_instructions": config.warmup_instructions,
        "sim_instructions": config.sim_instructions,
        "large_page_fraction": config.large_page_fraction,
        "epoch_instructions": config.epoch_instructions,
        "prefetcher_extra_storage": config.prefetcher_extra_storage,
        "asid": config.asid,
        "params": asdict(config.params),
    }
    # a sampled run approximates the full window, so its parameters are part
    # of the result's identity; recorded only when set, which keeps every
    # full-run fingerprint (and cache entry) from before sampling valid
    if config.sampling is not None:
        dump["sampling"] = asdict(config.sampling)
    return dump


def build_run_record(
    *,
    workload: Any,
    config: SimConfig,
    result: SimResult,
    wall_seconds: float,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Assemble one journal record (a plain JSON-serialisable dict)."""
    record: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": describe_workload(workload),
        "config": describe_config(config, policy_name=result.policy),
        "result": asdict(result),
        "derived": {
            "prefetch_accuracy": result.prefetch_accuracy,
            "prefetch_coverage": result.prefetch_coverage,
            "pgc_accuracy": result.pgc_accuracy,
            "branch_mpki": result.branch_mpki,
        },
        "wall_seconds": wall_seconds,
        "instructions_per_second": (
            result.instructions / wall_seconds if wall_seconds > 0 else None
        ),
        "host": host_info(),
    }
    if extra:
        record["context"] = dict(extra)
    return record


class RunJournal:
    """Appends one JSONL record per run to `path` (opened lazily)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.records_written = 0
        self._fh: Optional[IO[str]] = None

    def record(
        self,
        *,
        workload: Any,
        config: SimConfig,
        result: SimResult,
        wall_seconds: float,
        extra: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        """Append one run record; returns the dict that was written."""
        rec = build_run_record(
            workload=workload, config=config, result=result,
            wall_seconds=wall_seconds, extra=extra,
        )
        self.append_record(rec)
        return rec

    def append_record(self, record: dict[str, Any]) -> None:
        """Append an already-built record (e.g. one a grid worker sent home)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        self.records_written += 1

    def close(self) -> None:
        """Close the underlying file (safe to call repeatedly)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_journal(path: str | Path) -> list[dict[str, Any]]:
    """Load every record of a journal file (skipping blank lines)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
