"""Latency + bandwidth DRAM model.

Each access occupies its channel for ``transfer_cycles``; an access arriving
while the channel is busy queues behind it.  This is what makes *useless*
page-cross prefetch traffic (speculative walk reads + the prefetch itself)
cost real cycles: it delays subsequent demand misses, the mechanism behind
the paper's "up to 5 useless memory accesses" argument.
"""

from __future__ import annotations

from repro.params import DramParams


class Dram:
    """Simple multi-channel DRAM, optionally with open-page row buffers."""

    def __init__(self, params: DramParams):
        self.params = params
        self._next_free = [0.0] * params.channels
        self._channel_mask = params.channels - 1
        if params.channels & self._channel_mask:
            raise ValueError("channel count must be a power of two")
        if params.banks_per_channel & (params.banks_per_channel - 1):
            raise ValueError("banks per channel must be a power of two")
        self._bank_mask = params.banks_per_channel - 1
        #: open row per (channel, bank); -1 = closed
        self._open_rows = [
            [-1] * params.banks_per_channel for _ in range(params.channels)
        ]
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self._snap = (0, 0)
        # hot-path constants (read() runs once per LLC miss)
        self._transfer = params.transfer_cycles
        self._row_buffer = params.row_buffer
        self._lines_per_row = params.lines_per_row
        self._access_lat_f = float(params.access_latency)
        self._row_hit_lat_f = float(params.row_hit_latency)

    def _channel(self, line: int) -> int:
        return line & self._channel_mask

    def _access_latency(self, line: int, ch: int) -> float:
        p = self.params
        if not p.row_buffer:
            return float(p.access_latency)
        # row-interleaved bank mapping: a row lives in one bank, consecutive
        # rows spread across banks
        row = line // p.lines_per_row
        bank = row & self._bank_mask
        if self._open_rows[ch][bank] == row:
            self.row_hits += 1
            return float(p.row_hit_latency)
        self.row_misses += 1
        self._open_rows[ch][bank] = row
        return float(p.access_latency)

    def read(self, line: int, t: float, demand: bool = True) -> float:
        """Issue a read; returns its latency including queueing delay.

        Demand and prefetch reads are served alike: ``demand`` only gives
        ``read`` the signature of a level below, so the LLC's
        :meth:`Cache.miss` takes it as ``lower`` directly.
        """
        self.reads += 1
        ch = line & self._channel_mask
        nf = self._next_free
        start = nf[ch]
        if t > start:
            start = t
        nf[ch] = start + self._transfer
        # inlined _access_latency (hot)
        if not self._row_buffer:
            return (start - t) + self._access_lat_f
        row = line // self._lines_per_row
        bank = row & self._bank_mask
        rows = self._open_rows[ch]
        if rows[bank] == row:
            self.row_hits += 1
            return (start - t) + self._row_hit_lat_f
        self.row_misses += 1
        rows[bank] = row
        return (start - t) + self._access_lat_f

    def write(self, line: int, t: float) -> None:
        """Issue a writeback; consumes bandwidth but nobody waits on it."""
        self.writes += 1
        ch = self._channel(line)
        start = max(t, self._next_free[ch])
        self._next_free[ch] = start + self.params.transfer_cycles
        self._access_latency(line, ch)

    def snapshot(self) -> None:
        """Mark the warm-up boundary for traffic counters."""
        self._snap = (self.reads, self.writes)

    @property
    def measured_reads(self) -> int:
        """Reads since the warm-up snapshot."""
        return self.reads - self._snap[0]

    @property
    def measured_writes(self) -> int:
        """Writes since the warm-up snapshot."""
        return self.writes - self._snap[1]
