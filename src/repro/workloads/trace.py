"""Trace record format and workload protocol.

A trace is a stream of *records*, each describing one memory instruction plus
the run of non-memory instructions preceding it:

``(pc, vaddr, flags, gap)``

* ``pc`` — instruction pointer of the memory instruction;
* ``vaddr`` — virtual byte address accessed;
* ``flags`` — bitwise OR of :data:`LOAD`, :data:`STORE`,
  :data:`MISPREDICT` (record carries a branch that is *forced* to
  mispredict — legacy knob), :data:`DEPENDS` (address depends on the
  previous load — serialises, the pointer-chasing case), :data:`BRANCH`
  (record carries a conditional branch whose direction is :data:`TAKEN`;
  the core's hashed perceptron predictor decides whether it mispredicts);
* ``gap`` — count of non-memory instructions folded in before this record.

Folding non-memory instructions into ``gap`` keeps Python traces compact
while preserving instruction counts, fetch bandwidth, and ROB occupancy.
"""

from __future__ import annotations

from typing import Iterator, Protocol

Record = tuple[int, int, int, int]

LOAD = 1
STORE = 2
MISPREDICT = 4
DEPENDS = 8
BRANCH = 16
TAKEN = 32


class Workload(Protocol):
    """A restartable, deterministic trace source."""

    name: str
    suite: str

    def generate(self) -> Iterator[Record]:
        """Return a fresh iterator over the trace (same sequence every call)."""
        ...


def instructions_in(record: Record) -> int:
    """Instructions a record accounts for (itself plus its gap)."""
    return 1 + record[3]


def trace_window(workload: Workload, warmup: int, sim: int) -> tuple[int, int]:
    """The (warm-up, measured) instruction window ``workload`` runs.

    QMM traces run half-length windows, mirroring the paper's shorter
    warm-up and simulation for the Qualcomm traces (Section IV-A1).
    """
    if workload.suite.startswith("QMM"):
        return warmup // 2, sim // 2
    return warmup, sim
