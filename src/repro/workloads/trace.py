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

from typing import Any, Iterator, Optional, Protocol

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


#: generator knobs beyond :func:`workload_identity`'s name/suite/seed/mean_gap
#: that shape a synthetic trace (or, for ``path``, name a trace file)
_IDENTITY_KNOBS = ("store_fraction", "code_lines", "mispredict_rate",
                   "branch_profile", "pcs_per_pattern", "path")


def workload_identity(workload: Workload) -> Optional[dict[str, Any]]:
    """What names ``workload``'s record stream, or ``None`` if nothing does.

    The one rule every store that reuses a trace or a result keys on: the
    pack cache, the mix overflow tails, grid grouping and the result-cache
    fingerprint.  A workload with neither a ``seed`` nor a ``path`` has no
    identity and is kept by no store.  Otherwise the identity is its name,
    suite, seed and ``mean_gap``, plus every generator knob (and ``path``)
    it sets.  Pattern factories are not part of it, so name, suite and seed
    must determine a synthetic workload's phases.
    """
    seed = getattr(workload, "seed", None)
    if seed is None and getattr(workload, "path", None) is None:
        return None
    identity = {
        "name": getattr(workload, "name", str(workload)),
        "suite": getattr(workload, "suite", None),
        "seed": seed,
        "mean_gap": getattr(workload, "mean_gap", None),
    }
    for knob in _IDENTITY_KNOBS:
        value = getattr(workload, knob, None)
        if value is not None:
            identity[knob] = value
    return identity


def identity_key(workload: Workload) -> Optional[tuple]:
    """:func:`workload_identity` as a hashable key (``None`` without one)."""
    identity = workload_identity(workload)
    return None if identity is None else tuple(sorted(identity.items()))


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
