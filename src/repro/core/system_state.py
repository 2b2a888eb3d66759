"""Runtime system-state view consumed by system features and thresholding.

The simulator refreshes a :class:`SystemState` once per epoch with the
previous epoch's rates (hardware would sample counters the same way).  The
one live signal, the L1D's in-flight misses, is counted when it is read: the
engine stores the decision's time in ``now`` before each ``decide``, and
:attr:`SystemState.l1d_inflight_misses` recounts at that time.  Its only
reader is :meth:`~repro.core.thresholds.AdaptiveThreshold.effective`, past
its ROB-stall gate, so the O(outstanding) recount runs only there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


def _none_in_flight(t: float) -> int:
    return 0


@dataclass
class EpochStats:
    """Statistics gathered over one finished epoch (Figure 8, step 1)."""

    instructions: int = 0
    cycles: float = 0.0
    ipc: float = 0.0
    pgc_useful: int = 0
    pgc_useless: int = 0
    llc_miss_rate: float = 0.0
    llc_mpki: float = 0.0
    l1i_mpki: float = 0.0
    rob_stall_fraction: float = 0.0

    @property
    def pgc_accuracy(self) -> float:
        """Accuracy of page-cross prefetching during the epoch.

        Defined only when the epoch issued page-cross prefetches; epochs
        without any are reported as perfectly accurate (nothing to punish).
        """
        total = self.pgc_useful + self.pgc_useless
        return self.pgc_useful / total if total else 1.0


@dataclass
class SystemState:
    """Previous-epoch rates plus the live in-flight-miss signal."""

    l1d_mpki: float = 0.0
    l1d_miss_rate: float = 0.0
    llc_mpki: float = 0.0
    llc_miss_rate: float = 0.0
    stlb_mpki: float = 0.0
    stlb_miss_rate: float = 0.0
    l1i_mpki: float = 0.0
    ipc: float = 0.0
    rob_stall_fraction: float = 0.0
    last_epoch: EpochStats = field(default_factory=EpochStats)
    #: misses in flight at a time (the engine passes its L1D's ``in_flight_misses``)
    in_flight: Callable[[float], int] = _none_in_flight
    #: the time of the decision being made
    now: float = 0.0

    @property
    def l1d_inflight_misses(self) -> int:
        """L1D misses in flight at ``now``, recounted on every read."""
        return self.in_flight(self.now)
