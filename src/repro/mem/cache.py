"""Set-associative cache with LRU replacement, MSHRs, and fill timestamps.

The cache is *functional + timing-annotated*: it tracks which lines are
resident (so hits/misses and pollution are modelled exactly) and annotates
each block with the cycle its fill completes (so late prefetches pay the
residual latency instead of counting as full hits).

L1D blocks additionally carry the paper's **Page Cross Bit (PCB)** plus a
per-block hit counter, which drive the MOKA training events of Figure 7:
a demand hit on a PCB block fires ``listener.on_pcb_hit`` and the eviction
of a never-hit PCB block fires ``listener.on_pcb_evict_unused``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional, Protocol

from repro.mem.replacement import LruPolicy, make_replacement_policy
from repro.params import CacheParams
from repro.stats import HitMissStats
from repro.vm.address import LINE_SHIFT


class EvictionListener(Protocol):
    """Hooks the page-cross filter registers on the L1D."""

    def on_pcb_hit(self, phys_line: int) -> None:
        """First demand hit on a page-cross-prefetched block."""
        ...

    def on_pcb_evict_unused(self, phys_line: int) -> None:
        """Eviction of a page-cross-prefetched block that never hit."""
        ...


class Block:
    """One cache block's metadata."""

    __slots__ = ("tag", "lru", "ready", "dirty", "prefetched", "pcb", "hits")

    def __init__(self, tag: int, lru: int, ready: float, prefetched: bool, pcb: bool):
        self.tag = tag
        self.lru = lru
        self.ready = ready
        self.dirty = False
        self.prefetched = prefetched
        self.pcb = pcb
        self.hits = 0


class Cache:
    """One cache level."""

    def __init__(
        self,
        params: CacheParams,
        writeback: Optional[Callable[[int, float], None]] = None,
    ):
        self.params = params
        self.name = params.name
        self.latency = params.latency
        self._set_mask = params.sets - 1
        self._ways = params.ways
        self._sets: list[dict[int, Block]] = [dict() for _ in range(params.sets)]
        self._policy = make_replacement_policy(params.replacement)
        # LRU fast path: on_hit/on_fill collapse to a tick bump plus a field
        # store, so the two hottest methods inline them instead of paying a
        # Python call per access.  pa-lru inherits LruPolicy.on_hit unchanged,
        # so hit promotion fuses for it too; its on_fill differs and doesn't.
        self._fuse_hit = (isinstance(self._policy, LruPolicy)
                          and type(self._policy).on_hit is LruPolicy.on_hit)
        self._fuse_fill = type(self._policy) is LruPolicy
        # Move-to-end discipline (plain LRU only): every recency touch
        # reinserts the block's key, so dict iteration order is ascending
        # recency and the victim is simply the first key — no O(ways) scan.
        # Ticks are unique and monotonic, so the first key is exactly the
        # min-lru block the scan would pick.  Every fused touch point (here
        # and the replicated hit arms in repro.cpu.fastpath) maintains it.
        self._fuse_order = self._fuse_fill
        #: line -> fill-ready time for outstanding misses; the dict is keyed
        #: by line, so re-registered lines replace their stale entry instead
        #: of being double counted
        self._outstanding: dict[int, float] = {}
        #: min-heap of (ready, line); caps concurrent misses at mshr_entries
        self._mshr_heap: list[tuple[float, int]] = []
        self._mshr_entries = params.mshr_entries
        self._writeback = writeback
        self.listener: Optional[EvictionListener] = None
        self.stats = HitMissStats()
        self.demand_stats = HitMissStats()
        # prefetch usefulness accounting (all prefetches into this cache)
        self.prefetch_fills = 0
        self.prefetch_useful = 0
        self.prefetch_useless = 0
        self.prefetch_late = 0
        # page-cross subset (meaningful for the L1D)
        self.pgc_fills = 0
        self.pgc_useful = 0
        self.pgc_useless = 0
        self._snap_pf = (0, 0, 0, 0, 0, 0, 0)

    # -- residency -------------------------------------------------------

    def _set_for(self, line: int) -> dict[int, Block]:
        return self._sets[line & self._set_mask]

    def probe(self, line: int) -> Optional[Block]:
        """Check residency without touching LRU state or statistics."""
        return self._sets[line & self._set_mask].get(line)

    def lookup(self, line: int, t: float, demand: bool = True) -> Optional[Block]:
        """Tag lookup; updates replacement state and statistics."""
        cset = self._sets[line & self._set_mask]
        block = cset.get(line)
        hit = block is not None
        stats = self.stats
        stats.accesses += 1
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
        if demand:
            dstats = self.demand_stats
            dstats.accesses += 1
            if hit:
                dstats.hits += 1
            else:
                dstats.misses += 1
        if hit:
            if self._fuse_hit:
                policy = self._policy
                policy._tick += 1
                block.lru = policy._tick
                del cset[line]
                cset[line] = block
            else:
                self._policy.on_hit(block)
            if demand:
                if block.prefetched and block.hits == 0:
                    self.prefetch_useful += 1
                    if block.pcb:
                        self.pgc_useful += 1
                        if self.listener is not None:
                            self.listener.on_pcb_hit(line)
                block.hits += 1
        return block

    def fill(self, line: int, t: float, ready: float, prefetched: bool = False, pcb: bool = False) -> None:
        """Install a line, evicting the policy's victim if the set is full."""
        cset = self._sets[line & self._set_mask]
        existing = cset.get(line)
        if existing is not None:
            # refill of a resident line (e.g. prefetch hit under demand): keep
            # the earlier ready time, never downgrade a demand block to a
            # prefetch block.
            if self._fuse_hit:
                policy = self._policy
                policy._tick += 1
                existing.lru = policy._tick
                del cset[line]
                cset[line] = existing
            else:
                self._policy.on_hit(existing)
            if ready < existing.ready:
                existing.ready = ready
            return
        if len(cset) >= self._ways:
            victim_line = (next(iter(cset)) if self._fuse_order
                           else self._policy.victim(cset))
            vblock = cset.pop(victim_line)
            # inlined _evict (hot)
            if vblock.prefetched and vblock.hits == 0:
                self.prefetch_useless += 1
                if vblock.pcb:
                    self.pgc_useless += 1
                    if self.listener is not None:
                        self.listener.on_pcb_evict_unused(victim_line)
            if vblock.dirty and self._writeback is not None:
                self._writeback(victim_line, t)
            # recycle the evicted Block object (fills evict in steady state,
            # so this avoids an allocation per fill)
            block = vblock
            block.tag = line
            block.ready = ready
            block.dirty = False
            block.prefetched = prefetched
            block.pcb = pcb
            block.hits = 0
        else:
            block = Block(line, 0, ready, prefetched, pcb)
        cset[line] = block
        if self._fuse_fill:
            policy = self._policy
            policy._tick += 1
            block.lru = policy._tick
        else:
            self._policy.on_fill(block, prefetched)
        if prefetched:
            self.prefetch_fills += 1
            if pcb:
                self.pgc_fills += 1

    def absorb_writeback(self, line: int, t: float) -> None:
        """Take a dirty victim written back from the level above."""
        if self.probe(line) is None:
            self.fill(line, t, t)
        self.probe(line).dirty = True

    def invalidate(self, line: int) -> None:
        """Drop the line if resident (no writeback, no statistics)."""
        self._set_for(line).pop(line, None)

    # -- miss timing -------------------------------------------------------

    def mshr_delay(self, t: float) -> float:
        """Extra cycles a new miss waits for a free MSHR at time `t`."""
        heap = self._mshr_heap
        if heap and heap[0][0] <= t:
            out = self._outstanding
            while heap and heap[0][0] <= t:
                _, line = heappop(heap)
                ready = out.get(line)
                if ready is not None and ready <= t:
                    del out[line]
        if len(heap) >= self._mshr_entries:
            # the drain above popped every entry <= t, so this is positive
            return heap[0][0] - t
        return 0.0

    def miss(self, line: int, t: float, lower: Callable[[int, float, bool], float],
             demand: bool, prefetched: bool = False, pcb: bool = False) -> tuple[float, bool]:
        """Serve a tag miss at time `t`; returns ``(ready, merged)``.

        The one miss sequence of every level: merge into the line's in-flight
        fill (``merged``, ``ready`` its fill time), else wait for a free MSHR,
        read the level below through ``lower(line, issue, demand)`` (its
        latency), record the miss for merging and MSHR occupancy, and fill.
        ``lower`` is passed per call, never stored: a stored bound method
        of the hierarchy would close a cycle (DESIGN.md §16).
        """
        out = self._outstanding
        ready = out.get(line)
        if ready is not None:
            if ready > t:
                return ready, True
            del out[line]
        # mshr_delay is a pure no-op returning 0.0 unless the heap has
        # drainable or full entries, so the call is skipped otherwise (hot)
        heap = self._mshr_heap
        stall = (self.mshr_delay(t)
                 if heap and (heap[0][0] <= t or len(heap) >= self._mshr_entries)
                 else 0.0)
        issue = t + self.latency + stall
        ready = issue + lower(line, issue, demand)
        out[line] = ready
        heappush(heap, (ready, line))
        # an instance lookup, so InvariantChecker's per-cache wrap sees it
        self.fill(line, t, ready, prefetched, pcb)
        return ready, False

    def in_flight_misses(self, t: float) -> int:
        """Distinct lines with an incomplete miss in flight at time `t`.

        The pre-fix implementation reported the raw MSHR-heap length, which
        kept counting fills that had already completed (the heap is pruned
        lazily) and double counted re-registered lines — so the
        ``l1d_inflight_misses`` policy feature could drift far above the real
        miss-level parallelism.  Counting incomplete entries of the
        line-keyed map gives the pruned, deduplicated truth.
        """
        return sum(1 for ready in self._outstanding.values() if ready > t)

    # -- statistics -------------------------------------------------------

    def finalize(self) -> None:
        """Account resident never-hit prefetch blocks as useless (end of sim)."""
        for cset in self._sets:
            for block in cset.values():
                if block.prefetched and block.hits == 0:
                    self.prefetch_useless += 1
                    if block.pcb:
                        self.pgc_useless += 1
                    block.prefetched = False
                    block.pcb = False

    def snapshot(self) -> None:
        """Mark the warm-up boundary for all statistics."""
        self.stats.snapshot()
        self.demand_stats.snapshot()
        self._snap_pf = (
            self.prefetch_fills,
            self.prefetch_useful,
            self.prefetch_useless,
            self.prefetch_late,
            self.pgc_fills,
            self.pgc_useful,
            self.pgc_useless,
        )

    @property
    def measured_prefetch(self) -> dict[str, int]:
        """Prefetch usefulness counters over the measured region."""
        s = self._snap_pf
        return {
            "fills": self.prefetch_fills - s[0],
            "useful": self.prefetch_useful - s[1],
            "useless": self.prefetch_useless - s[2],
            "late": self.prefetch_late - s[3],
            "pgc_fills": self.pgc_fills - s[4],
            "pgc_useful": self.pgc_useful - s[5],
            "pgc_useless": self.pgc_useless - s[6],
        }

    def occupancy(self) -> int:
        """Number of resident blocks."""
        return sum(len(cset) for cset in self._sets)

    def resident_prefetch_counts(self) -> tuple[int, int]:
        """(prefetched, pcb) resident blocks whose usefulness is unresolved.

        A prefetched block with no demand hit yet will eventually be counted
        exactly once as useful or useless; blocks already hit were counted
        useful when it happened.  The warm-up boundary uses this to bound the
        measured-region useful+useless carry-over.
        """
        prefetched = pcb = 0
        for cset in self._sets:
            for block in cset.values():
                if block.prefetched and block.hits == 0:
                    prefetched += 1
                    if block.pcb:
                        pcb += 1
        return prefetched, pcb


def byte_to_line(addr: int) -> int:
    """Byte address to cache-line address."""
    return addr >> LINE_SHIFT
