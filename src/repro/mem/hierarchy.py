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
"""

from __future__ import annotations

from heapq import heappush
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
        lat = self.llc.latency
        block = self.llc.lookup(line, t, demand=demand)
        if demand:
            self.llc_core_stats.record(block is not None)
        if block is not None:
            return max(lat, block.ready - t)
        # inlined Cache.outstanding_ready (hot): merge into an in-flight
        # fill when one exists, dropping stale completed entries
        out = self.llc._outstanding
        merged = out.get(line)
        if merged is not None:
            if merged > t:
                # merging into an almost-complete fill still costs a tag lookup
                return max(float(lat), merged - t)
            del out[line]
        # inlined register_miss + guarded mshr_delay (the call is a pure
        # no-op returning 0.0 unless the heap has drainable or full entries)
        llc = self.llc
        heap = llc._mshr_heap
        stall = (llc.mshr_delay(t)
                 if heap and (heap[0][0] <= t or len(heap) >= llc._mshr_entries)
                 else 0.0)
        issue = t + lat + stall
        dram_lat = self.dram.read(line, issue)
        ready = issue + dram_lat
        out[line] = ready
        heappush(heap, (ready, line))
        llc.fill(line, t, ready)
        return ready - t

    def _read_l2(self, line: int, t: float, demand: bool) -> float:
        """L2C lookup at time t; misses recurse into the LLC."""
        lat = self.l2c.latency
        block = self.l2c.lookup(line, t, demand=demand)
        if block is not None:
            return max(lat, block.ready - t)
        out = self.l2c._outstanding
        merged = out.get(line)
        if merged is not None:
            if merged > t:
                return max(float(lat), merged - t)
            del out[line]
        l2c = self.l2c
        heap = l2c._mshr_heap
        stall = (l2c.mshr_delay(t)
                 if heap and (heap[0][0] <= t or len(heap) >= l2c._mshr_entries)
                 else 0.0)
        issue = t + lat + stall
        lower = self._read_llc(line, issue, demand)
        ready = issue + lower
        out[line] = ready
        heappush(heap, (ready, line))
        l2c.fill(line, t, ready)
        return ready - t

    # -- demand data path ----------------------------------------------------

    def load(self, paddr: int, t: float) -> tuple[float, bool]:
        """Demand load.  Returns (latency, l1d_hit)."""
        line = paddr >> LINE_SHIFT
        lat = self.l1d.latency
        block = self.l1d.lookup(line, t, demand=True)
        if block is not None:
            if block.ready > t + lat:
                if block.prefetched and block.hits == 1:
                    self.l1d.prefetch_late += 1
                return block.ready - t, True
            return float(lat), True
        out = self.l1d._outstanding
        merged = out.get(line)
        if merged is not None:
            if merged > t:
                return max(float(lat), merged - t), False
            del out[line]
        l1d = self.l1d
        heap = l1d._mshr_heap
        stall = (l1d.mshr_delay(t)
                 if heap and (heap[0][0] <= t or len(heap) >= l1d._mshr_entries)
                 else 0.0)
        issue = t + lat + stall
        lower = self._read_l2(line, issue, demand=True)
        ready = issue + lower
        out[line] = ready
        heappush(heap, (ready, line))
        l1d.fill(line, t, ready)
        return ready - t, False

    def store(self, paddr: int, t: float) -> float:
        """Demand store (write-allocate; the core does not wait on the fill)."""
        line = paddr >> LINE_SHIFT
        lat = self.l1d.latency
        block = self.l1d.lookup(line, t, demand=True)
        if block is None:
            merged = self.l1d.outstanding_ready(line, t)
            if merged is None:
                stall = self.l1d.mshr_delay(t)
                issue = t + lat + stall
                lower = self._read_l2(line, issue, demand=True)
                ready = issue + lower
                self.l1d.register_miss(line, t, ready)
                self.l1d.fill(line, t, ready)
            block = self.l1d.probe(line)
        if block is not None:
            block.dirty = True
        return float(lat)

    # -- instruction path ------------------------------------------------------

    def ifetch(self, paddr: int, t: float) -> float:
        """Instruction-line fetch through the L1I."""
        line = paddr >> LINE_SHIFT
        lat = self.l1i.latency
        block = self.l1i.lookup(line, t, demand=True)
        if block is not None:
            return max(float(lat), block.ready - t)
        out = self.l1i._outstanding
        merged = out.get(line)
        if merged is not None:
            if merged > t:
                return max(float(lat), merged - t)
            del out[line]
        l1i = self.l1i
        heap = l1i._mshr_heap
        stall = (l1i.mshr_delay(t)
                 if heap and (heap[0][0] <= t or len(heap) >= l1i._mshr_entries)
                 else 0.0)
        issue = t + lat + stall
        lower = self._read_l2(line, issue, demand=True)
        ready = issue + lower
        out[line] = ready
        heappush(heap, (ready, line))
        l1i.fill(line, t, ready)
        return ready - t

    def prefetch_l1i(self, paddr: int, t: float) -> None:
        """Next-line style instruction prefetch fill."""
        line = paddr >> LINE_SHIFT
        l1i = self.l1i
        if l1i._sets[line & l1i._set_mask].get(line) is not None:
            return
        out = l1i._outstanding
        merged = out.get(line)
        if merged is not None:
            if merged > t:
                return
            del out[line]
        heap = l1i._mshr_heap
        stall = (l1i.mshr_delay(t)
                 if heap and (heap[0][0] <= t or len(heap) >= l1i._mshr_entries)
                 else 0.0)
        issue = t + l1i.latency + stall
        lower = self._read_l2(line, issue, demand=False)
        ready = issue + lower
        out[line] = ready
        heappush(heap, (ready, line))
        l1i.fill(line, t, ready, prefetched=True)

    # -- prefetch paths ---------------------------------------------------------

    def prefetch_l1d(self, paddr: int, t: float, *, pcb: bool = False) -> Optional[float]:
        """L1D prefetch fill; returns the fill-ready time, or None if dropped
        (already resident / already in flight)."""
        line = paddr >> LINE_SHIFT
        l1d = self.l1d
        if l1d._sets[line & l1d._set_mask].get(line) is not None:
            return None
        out = l1d._outstanding
        merged = out.get(line)
        if merged is not None:
            if merged > t:
                return None
            del out[line]
        heap = l1d._mshr_heap
        stall = (l1d.mshr_delay(t)
                 if heap and (heap[0][0] <= t or len(heap) >= l1d._mshr_entries)
                 else 0.0)
        issue = t + l1d.latency + stall
        lower = self._read_l2(line, issue, demand=False)
        ready = issue + lower
        out[line] = ready
        heappush(heap, (ready, line))
        l1d.fill(line, t, ready, prefetched=True, pcb=pcb)
        return ready

    def prefetch_l2(self, paddr: int, t: float) -> Optional[float]:
        """L2C prefetch fill (used by the Section V-B7 L2 prefetcher study)."""
        line = paddr >> LINE_SHIFT
        if self.l2c.probe(line) is not None:
            return None
        if self.l2c.outstanding_ready(line, t) is not None:
            return None
        stall = self.l2c.mshr_delay(t)
        issue = t + self.l2c.latency + stall
        lower = self._read_llc(line, issue, demand=False)
        ready = issue + lower
        self.l2c.register_miss(line, t, ready)
        self.l2c.fill(line, t, ready, prefetched=True)
        return ready

    # -- page-walk path -----------------------------------------------------------

    def ptw_read(self, pte_paddr: int, t: float, speculative: bool) -> float:
        """PTE read issued by the page walker (L2C -> LLC -> DRAM)."""
        return self._read_l2(pte_paddr >> LINE_SHIFT, t, demand=False)

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
