"""Workload substrate: trace format, pattern primitives, suites, registry."""

from repro.workloads.registry import (
    by_name,
    make_mixes,
    motivation_workloads,
    non_intensive_workloads,
    seen_workloads,
    stratified_sample,
    unseen_workloads,
)
from repro.workloads.packed import (
    PackedTrace,
    PackedWorkload,
    PackIndex,
    clear_pack_cache,
    get_packed,
    pack_cache_stats,
)
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import BRANCH, DEPENDS, LOAD, MISPREDICT, STORE, TAKEN, Record, Workload
from repro.workloads.trace_io import (
    ChampsimWorkload,
    FileWorkload,
    convert_champsim,
    read_champsim,
    read_trace,
    read_trace_header,
    snapshot_workload,
    write_trace,
)

__all__ = [
    "by_name",
    "make_mixes",
    "motivation_workloads",
    "non_intensive_workloads",
    "seen_workloads",
    "stratified_sample",
    "unseen_workloads",
    "PackedTrace",
    "PackedWorkload",
    "PackIndex",
    "clear_pack_cache",
    "get_packed",
    "pack_cache_stats",
    "SyntheticWorkload",
    "BRANCH",
    "DEPENDS",
    "LOAD",
    "MISPREDICT",
    "STORE",
    "TAKEN",
    "Record",
    "Workload",
    "ChampsimWorkload",
    "FileWorkload",
    "convert_champsim",
    "read_champsim",
    "read_trace",
    "read_trace_header",
    "snapshot_workload",
    "write_trace",
]
