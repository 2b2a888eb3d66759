"""Hardware page-table walker.

Models the three properties called out in Section IV:

* **variant latency** — the walk's cost depends on how many levels the split
  PSCs short-circuit and on where each PTE read hits in the cache hierarchy;
* **walk references to the memory hierarchy** — every PTE read is issued
  through a caller-supplied ``pte_reader`` (wired to L2C -> LLC -> DRAM by the
  simulator), so walks both benefit from and pollute the caches;
* **cache locality in page walks** — PTE physical addresses come from the
  page table's node frames, so neighbouring VPNs share 64-byte PTE lines.

Speculative walks (triggered by page-cross prefetches, step D of Figure 5)
use the same machinery but are tagged so TLB fills can be attributed to
prefetching and so statistics separate demand from speculative walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.vm.page_table import PageTable, Translation
from repro.vm.psc import SplitPsc

#: pte_reader(pte_phys_addr, time, speculative) -> latency in cycles
PteReader = Callable[[int, float, bool], float]


@dataclass
class WalkResult:
    """Outcome of one page walk."""

    translation: Translation
    latency: float
    memory_reads: int
    speculative: bool


class PageWalker:
    """x86-style radix walker with split PSCs."""

    def __init__(self, page_table: PageTable, psc: SplitPsc, pte_reader: PteReader):
        self.page_table = page_table
        self.psc = psc
        self.pte_reader = pte_reader
        self.demand_walks = 0
        self.speculative_walks = 0
        self.demand_walk_cycles = 0.0
        self.speculative_walk_reads = 0
        self._snap = (0, 0, 0.0, 0)

    def walk(self, vaddr: int, t: float, speculative: bool = False) -> WalkResult:
        """Walk the page table for `vaddr` starting at time `t`."""
        leaf = self.page_table.leaf_level(vaddr)
        hit_level = self.psc.best_hit_level(vaddr)
        if hit_level is not None and hit_level - 1 >= leaf:
            start = hit_level - 1
        else:
            start = 5
        latency = float(self.psc.latency)
        reads = 0
        for level in range(start, leaf - 1, -1):
            pte_addr = self.page_table.pte_address(vaddr, level)
            latency += self.pte_reader(pte_addr, t + latency, speculative)
            reads += 1
            if level > leaf:
                # non-leaf entry read -> next-lower node pointer now known
                self.psc.fill(vaddr, level)
        translation = self.page_table.translate(vaddr)
        if speculative:
            self.speculative_walks += 1
            self.speculative_walk_reads += reads
        else:
            self.demand_walks += 1
            self.demand_walk_cycles += latency
        return WalkResult(translation, latency, reads, speculative)

    def snapshot(self) -> None:
        """Mark the warm-up boundary for walk statistics."""
        self._snap = (
            self.demand_walks,
            self.speculative_walks,
            self.demand_walk_cycles,
            self.speculative_walk_reads,
        )
        self.psc.snapshot()

    @property
    def measured_demand_walks(self) -> int:
        """Demand walks since the warm-up snapshot."""
        return self.demand_walks - self._snap[0]

    @property
    def measured_speculative_walks(self) -> int:
        """Speculative (prefetch-triggered) walks since the snapshot."""
        return self.speculative_walks - self._snap[1]
