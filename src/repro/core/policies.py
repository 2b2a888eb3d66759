"""Page-cross policies: the common interface plus the static baselines.

A *policy* answers one question — should this page-cross prefetch be issued?
— and receives the training callbacks of Figure 7.  Static baselines
(Section V-A) ignore the callbacks:

* :class:`PermitPgc` — always issue (what vendors may do);
* :class:`DiscardPgc` — never issue (what academic prefetchers do);
* :class:`DiscardPtw` — issue only when the translation is already TLB
  resident (never trigger a speculative walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.context import FeatureContext, PrefetchRequest
from repro.core.system_state import EpochStats, SystemState
from repro.core.update_buffers import TrainingRecord


@dataclass
class Decision:
    """Outcome of a policy consultation for one page-cross prefetch."""

    issue: bool
    record: Optional[TrainingRecord] = None


class PageCrossPolicy:
    """Base class: decide + training hooks (all hooks default to no-ops).

    ``decide`` reads the engine's :class:`SystemState`, whose
    ``l1d_inflight_misses`` is counted only when read, so a policy that
    ignores it pays nothing for it.
    """

    name = "base"
    #: when True the simulator discards the request if its translation is not
    #: already TLB resident instead of starting a speculative walk
    requires_translation_hit = False

    def decide(self, req: PrefetchRequest, ctx: FeatureContext, state: SystemState) -> Decision:
        """Should this page-cross prefetch be issued?"""
        raise NotImplementedError

    # -- training hooks (Figure 7) ----------------------------------------

    def on_discarded(self, virt_line: int, record: Optional[TrainingRecord]) -> None:
        """A page-cross prefetch was discarded (virtual line address)."""

    def on_issued(self, phys_line: int, record: Optional[TrainingRecord]) -> None:
        """A page-cross prefetch was issued (physical line address)."""

    def on_demand_miss(self, virt_line: int) -> None:
        """A demand L1D miss occurred (virtual line address)."""

    def on_pcb_hit(self, phys_line: int) -> None:
        """A PCB block served its first demand hit."""

    def on_pcb_evict_unused(self, phys_line: int) -> None:
        """A PCB block was evicted without any demand hit."""

    def on_epoch(self, epoch: EpochStats) -> None:
        """An adaptive-thresholding epoch ended."""

    def storage_bits(self) -> int:
        """Hardware budget of the policy (0 for static policies)."""
        return 0


class PermitPgc(PageCrossPolicy):
    """Always permit page-cross prefetches (Permit PGC)."""

    name = "permit-pgc"

    def decide(self, req: PrefetchRequest, ctx: FeatureContext, state: SystemState) -> Decision:
        """Always issue."""
        return Decision(True)


class DiscardPgc(PageCrossPolicy):
    """Always discard page-cross prefetches (Discard PGC, the baseline)."""

    name = "discard-pgc"

    def decide(self, req: PrefetchRequest, ctx: FeatureContext, state: SystemState) -> Decision:
        """Always discard."""
        return Decision(False)


class DiscardPtw(PageCrossPolicy):
    """Permit page-cross prefetches only on a TLB hit (Discard PTW)."""

    name = "discard-ptw"
    requires_translation_hit = True

    def decide(self, req: PrefetchRequest, ctx: FeatureContext, state: SystemState) -> Decision:
        """Issue; the engine discards it on a TLB miss instead of walking."""
        return Decision(True)
