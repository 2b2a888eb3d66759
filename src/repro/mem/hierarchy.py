"""Three-level cache hierarchy with DRAM, matching Table IV.

Private L1I/L1D/L2C per core; the LLC and DRAM may be shared between
hierarchies (8-core mixes).  Entry points:

* :meth:`load` / :meth:`store` — demand data accesses from the core;
* :meth:`ifetch` — instruction fetches (L1I path);
* :meth:`prefetch_l1d` — L1D prefetcher fills (optionally PCB-tagged);
* :meth:`prefetch_l2` — L2C prefetcher fills (Section V-B7 study);
* :meth:`ptw_read` — page-table-walker PTE reads (L2C -> LLC -> DRAM).

All methods take the current core time ``t`` and return a latency; fills are
annotated with their ready time so that late prefetches are charged the
residual wait.

Each entry point keeps its own hit arm (late-prefetch accounting, per-core
LLC stats, its latency floor) and hands a tag miss to :meth:`Cache.miss`,
the one miss sequence (merge, MSHR wait, read below, record, fill), with
the level below as ``lower``: :meth:`_read_l2` for the L1s,
:meth:`_read_llc` for the L2C and :meth:`Dram.read` for the LLC.  ``lower``
is passed per call, never stored on a cache (DESIGN.md §16).  Calls on this path pass their
flags (``demand``, ``prefetched``, ``pcb``) positionally: in CPython 3.11 a
keyword argument more than doubles the cost of the call.
"""

from __future__ import annotations

from typing import Optional

from repro.mem.cache import Cache
from repro.mem.dram import Dram
from repro.params import SystemParams
from repro.stats import HitMissStats
from repro.vm.address import LINE_SHIFT


class MemoryHierarchy:
    """One core's view of the cache hierarchy."""

    def __init__(
        self,
        params: SystemParams,
        shared_llc: Optional[Cache] = None,
        shared_dram: Optional[Dram] = None,
    ):
        self.params = params
        self.dram = shared_dram if shared_dram is not None else Dram(params.dram)
        if shared_llc is not None:
            self.llc = shared_llc
        else:
            self.llc = Cache(params.llc, writeback=self.dram.write)
        # each level knows only the one below: a tree (DESIGN.md §16)
        self.l2c = Cache(params.l2c, writeback=self.llc.absorb_writeback)
        self.l1d = Cache(params.l1d, writeback=self.l2c.absorb_writeback)
        self.l1i = Cache(params.l1i, writeback=self.l2c.absorb_writeback)
        #: this core's demand traffic at the (possibly shared) LLC — the
        #: shared cache's own stats aggregate all cores, which must not feed
        #: a single core's epoch heuristics or per-core MPKIs
        self.llc_core_stats = HitMissStats()

    # -- lower-level read path ----------------------------------------------

    def _read_llc(self, line: int, t: float, demand: bool) -> float:
        """LLC lookup at time t; returns cycles until data is available."""
        llc = self.llc
        lat = llc.latency
        block = llc.lookup(line, t, demand)
        if demand:
            self.llc_core_stats.record(block is not None)
        if block is not None:
            return max(lat, block.ready - t)
        ready, merged = llc.miss(line, t, self.dram.read, demand)
        # merging into an almost-complete fill still costs a tag lookup
        return max(float(lat), ready - t) if merged else ready - t

    def _read_l2(self, line: int, t: float, demand: bool) -> float:
        """L2C lookup at time t; misses recurse into the LLC."""
        l2c = self.l2c
        lat = l2c.latency
        block = l2c.lookup(line, t, demand)
        if block is not None:
            return max(lat, block.ready - t)
        ready, merged = l2c.miss(line, t, self._read_llc, demand)
        return max(float(lat), ready - t) if merged else ready - t

    # -- demand data path ----------------------------------------------------

    def load(self, paddr: int, t: float) -> tuple[float, bool]:
        """Demand load.  Returns (latency, l1d_hit)."""
        line = paddr >> LINE_SHIFT
        l1d = self.l1d
        lat = l1d.latency
        block = l1d.lookup(line, t)
        if block is not None:
            if block.ready > t + lat:
                if block.prefetched and block.hits == 1:
                    l1d.prefetch_late += 1
                return block.ready - t, True
            return float(lat), True
        ready, merged = l1d.miss(line, t, self._read_l2, True)
        return (max(float(lat), ready - t) if merged else ready - t), False

    def store(self, paddr: int, t: float) -> float:
        """Demand store (write-allocate; the core does not wait on the fill)."""
        line = paddr >> LINE_SHIFT
        l1d = self.l1d
        block = l1d.lookup(line, t)
        if block is None:
            l1d.miss(line, t, self._read_l2, True)
            block = l1d.probe(line)
        if block is not None:
            block.dirty = True
        return float(l1d.latency)

    # -- instruction path ------------------------------------------------------

    def ifetch(self, paddr: int, t: float) -> float:
        """Instruction-line fetch through the L1I."""
        line = paddr >> LINE_SHIFT
        l1i = self.l1i
        lat = l1i.latency
        block = l1i.lookup(line, t)
        if block is not None:
            return max(float(lat), block.ready - t)
        ready, merged = l1i.miss(line, t, self._read_l2, True)
        return max(float(lat), ready - t) if merged else ready - t

    def prefetch_l1i(self, paddr: int, t: float) -> None:
        """Next-line style instruction prefetch fill."""
        line = paddr >> LINE_SHIFT
        l1i = self.l1i
        # inlined probe (hot): a resident line is never refetched
        if l1i._sets[line & l1i._set_mask].get(line) is None:
            l1i.miss(line, t, self._read_l2, False, True)

    # -- prefetch paths ---------------------------------------------------------

    def prefetch_l1d(self, paddr: int, t: float, pcb: bool = False) -> Optional[float]:
        """L1D prefetch fill; returns the fill-ready time, or None if dropped
        (already resident / already in flight)."""
        line = paddr >> LINE_SHIFT
        l1d = self.l1d
        if l1d._sets[line & l1d._set_mask].get(line) is not None:
            return None
        ready, merged = l1d.miss(line, t, self._read_l2, False, True, pcb)
        return None if merged else ready

    def prefetch_l2(self, paddr: int, t: float) -> Optional[float]:
        """L2C prefetch fill (used by the Section V-B7 L2 prefetcher study)."""
        line = paddr >> LINE_SHIFT
        if self.l2c.probe(line) is not None:
            return None
        ready, merged = self.l2c.miss(line, t, self._read_llc, False, True)
        return None if merged else ready

    # -- page-walk path -----------------------------------------------------------

    def ptw_read(self, pte_paddr: int, t: float, speculative: bool) -> float:
        """PTE read issued by the page walker (L2C -> LLC -> DRAM)."""
        return self._read_l2(pte_paddr >> LINE_SHIFT, t, False)

    # -- bookkeeping -----------------------------------------------------------

    def snapshot(self) -> None:
        """Mark the warm-up boundary across every level and DRAM."""
        for cache in (self.l1i, self.l1d, self.l2c, self.llc):
            cache.snapshot()
        self.llc_core_stats.snapshot()
        self.dram.snapshot()

    def finalize(self) -> None:
        """Settle end-of-run accounting (resident unused prefetches)."""
        for cache in (self.l1i, self.l1d, self.l2c, self.llc):
            cache.finalize()
