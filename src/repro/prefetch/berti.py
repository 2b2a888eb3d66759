"""Berti: accurate local-delta prefetcher (Navarro-Torres et al., MICRO'22).

Faithful-in-spirit reimplementation: per-IP access history with timestamps,
from which Berti learns the local deltas that would have been *timely* (the
earlier access happened long enough ago for the prefetch to have completed)
and issues the deltas whose observed coverage clears a confidence bar.

Simplifications vs the original: fixed timeliness horizon instead of the
measured per-fill latency, and aging by periodic halving instead of Berti's
windowed counters.  Both preserve the property the paper leans on: Berti
issues *large, confident* deltas, so near page edges it naturally produces
page-cross candidates.
"""

from __future__ import annotations

from repro.core.context import PrefetchRequest
from repro.prefetch.base import L1dPrefetcher
from repro.vm.address import LINE_SHIFT


class _IpEntry:
    __slots__ = ("history", "deltas", "accesses", "best")

    def __init__(self) -> None:
        #: accessed lines, newest last (timeliness is judged by history
        #: *depth*, not wall time — see min_lookback — so no timestamps)
        self.history: list[int] = []
        self.deltas: dict[int, int] = {}
        self.accesses = 0
        self.best: list[int] = []


class BertiPrefetcher(L1dPrefetcher):
    """Berti L1D prefetcher."""

    name = "berti"
    replayable = True

    def __init__(
        self,
        *,
        ip_table_entries: int = 64,
        history_entries: int = 16,
        min_lookback: int = 4,
        max_delta: int = 192,
        coverage_threshold: float = 0.30,
        max_best_deltas: int = 3,
        refresh_interval: int = 16,
        extra_storage_bytes: int = 0,
    ):
        super().__init__(extra_storage_bytes=extra_storage_bytes)
        # ISO-storage scaling: each IP entry costs ~64B (history + counters)
        self.ip_table_entries = ip_table_entries + extra_storage_bytes // 64
        self.history_entries = history_entries
        #: a delta is "timely" when its history anchor is at least this many
        #: same-IP accesses old (count-based proxy for Berti's fill-latency
        #: test; robust to the clustered dispatch times of an OoO window)
        self.min_lookback = min_lookback
        self.max_delta = max_delta
        self.coverage_threshold = coverage_threshold
        self.max_best_deltas = max_best_deltas
        self.refresh_interval = refresh_interval
        self._table: dict[int, _IpEntry] = {}
        self._lru: dict[int, int] = {}
        self._tick = 0

    def _entry(self, pc: int) -> _IpEntry:
        # self._lru is kept in touch order (touching a pc reinserts its key),
        # so the LRU victim is always the first key — no min() scan
        self._tick += 1
        lru = self._lru
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.ip_table_entries:
                victim = next(iter(lru))
                del self._table[victim]
                del lru[victim]
            entry = _IpEntry()
            self._table[pc] = entry
        else:
            del lru[pc]
        lru[pc] = self._tick
        return entry

    def on_access(self, pc: int, vaddr: int, hit: bool, t: float) -> list[PrefetchRequest]:
        """Observe the access, learn timely deltas, emit the confident set."""
        line = vaddr >> LINE_SHIFT
        entry = self._entry(pc)
        entry.accesses += 1
        # learn timely deltas against the per-IP history: only anchors at
        # least min_lookback accesses old count (prefetching closer than
        # that would arrive too late to matter)
        history = entry.history
        eligible = len(history) - self.min_lookback + 1
        if eligible > 0:
            deltas = entry.deltas
            deltas_get = deltas.get
            max_delta = self.max_delta
            for anchor in history[:eligible]:
                delta = line - anchor
                if delta != 0 and -max_delta <= delta <= max_delta:
                    deltas[delta] = deltas_get(delta, 0) + 1
        # periodically refresh the confident-delta set and age counters
        if entry.accesses % self.refresh_interval == 0 and entry.deltas:
            bar = self.coverage_threshold * self.refresh_interval
            confident = [d for d, n in entry.deltas.items() if n >= bar]
            # among confident deltas prefer the farthest (most timely)
            confident.sort(key=abs, reverse=True)
            entry.best = confident[: self.max_best_deltas]
            entry.deltas = {d: n // 2 for d, n in entry.deltas.items() if n > 1}
        history.append(line)
        if len(history) > self.history_entries:
            history.pop(0)
        best = entry.best
        if not best:
            return []
        # inlined _request: target (line+delta) << LINE_SHIFT, trigger delta
        shift = LINE_SHIFT
        return [
            PrefetchRequest((line + delta) << shift, pc, delta, rank)
            for rank, delta in enumerate(best, start=1)
        ]
