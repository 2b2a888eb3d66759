"""BOP: Best-Offset Prefetching (Michaud, HPCA'16).

A global (IP-agnostic) prefetcher that learns the single best prefetch
offset.  Recent request base addresses live in the RR table; a learning
phase scores each candidate offset O by checking, on an access to X, whether
X - O was recently requested (meaning a prefetch at offset O would have been
issued in time).  The phase ends when an offset saturates its score or after
a fixed number of rounds; the winner becomes the prefetch offset if its
score clears ``bad_score``.
"""

from __future__ import annotations

from repro.core.context import PrefetchRequest
from repro.prefetch.base import L1dPrefetcher
from repro.vm.address import LINE_SHIFT

#: Michaud's offset list: products 2^i * 3^j * 5^k up to 128, plus negatives
_POS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60, 64, 72, 75, 80, 81, 90, 96, 100, 108, 120, 125, 128]
DEFAULT_OFFSETS: tuple[int, ...] = tuple(_POS + [-o for o in (1, 2, 3, 4, 6, 8)])


class BopPrefetcher(L1dPrefetcher):
    """BOP prefetcher (usable at L1D or, page-clamped, at L2)."""

    name = "bop"
    replayable = True

    def __init__(
        self,
        *,
        rr_entries: int = 64,
        offsets: tuple[int, ...] = DEFAULT_OFFSETS,
        score_max: int = 31,
        round_max: int = 20,
        bad_score: int = 4,
        degree: int = 1,
        extra_storage_bytes: int = 0,
    ):
        super().__init__(extra_storage_bytes=extra_storage_bytes)
        # ISO-storage scaling: RR entries are ~4B but BOP is sensitive to RR
        # reach, so the extra budget is applied conservatively
        rr = rr_entries + extra_storage_bytes // 16
        self.rr_entries = 1 << (rr.bit_length() - 1)  # keep power of two
        self.offsets = offsets
        self.score_max = score_max
        self.round_max = round_max
        self.bad_score = bad_score
        self.degree = degree
        self._rr = [0] * self.rr_entries
        self._scores = [0] * len(offsets)
        self._test_index = 0
        self._round = 0
        self.best_offset = 0  # 0 -> prefetching off

    def _rr_index(self, line: int) -> int:
        return (line ^ (line >> 8)) & (self.rr_entries - 1)

    def _rr_hit(self, line: int) -> bool:
        return self._rr[self._rr_index(line)] == line

    def _rr_insert(self, line: int) -> None:
        self._rr[self._rr_index(line)] = line

    def _end_phase(self, winner: int | None = None) -> None:
        if winner is not None:
            # an offset saturated its score: select it unconditionally
            self.best_offset = winner
        else:
            best_score = max(self._scores)
            if best_score > self.bad_score:
                self.best_offset = self.offsets[self._scores.index(best_score)]
            else:
                self.best_offset = 0
        self._scores = [0] * len(self.offsets)
        self._test_index = 0
        self._round = 0

    def on_access(self, pc: int, vaddr: int, hit: bool, t: float) -> list[PrefetchRequest]:
        """Test one offset, update RR, emit via the current best offset."""
        line = vaddr >> LINE_SHIFT
        # learning step: test one offset per access
        offset = self.offsets[self._test_index]
        if self._rr_hit(line - offset):
            self._scores[self._test_index] += 1
            if self._scores[self._test_index] >= self.score_max:
                self._end_phase(winner=offset)
                offset = None  # phase ended inside this access
        if offset is not None:
            self._test_index += 1
            if self._test_index >= len(self.offsets):
                self._test_index = 0
                self._round += 1
                if self._round >= self.round_max:
                    self._end_phase()
        self._rr_insert(line)
        if self.best_offset == 0:
            return []
        return [
            self._request(line + self.best_offset * k, pc, line, meta=k)
            for k in range(1, self.degree + 1)
        ]
