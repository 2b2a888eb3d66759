"""IPCP: Instruction Pointer Classifier-based Prefetching (ISCA'20).

Classifies each load IP into one of three classes and prefetches accordingly:

* **CS** (constant stride): stride confirmed by a 2-bit confidence counter;
  prefetch ``degree`` strides ahead.
* **CPLX** (complex): a signature of recent per-IP deltas indexes a delta
  prediction table; prefetch along the predicted delta chain.
* **GS** (global stream): a global monotonic-direction detector; prefetch the
  next lines in the stream direction.

As in the original, classes are prioritised CS > CPLX > GS, and prefetches
are emitted without regard to page boundaries (the page-cross policy decides
their fate).
"""

from __future__ import annotations

from repro.core.context import PrefetchRequest
from repro.prefetch.base import L1dPrefetcher
from repro.vm.address import LINE_SHIFT

_SIG_MASK = 0xFFF


class _IpcpEntry:
    __slots__ = ("last_line", "stride", "conf", "signature", "valid")

    def __init__(self) -> None:
        self.last_line = 0
        self.stride = 0
        self.conf = 0
        self.signature = 0
        self.valid = False


class IpcpPrefetcher(L1dPrefetcher):
    """IPCP L1D prefetcher."""

    name = "ipcp"
    replayable = True

    def __init__(
        self,
        *,
        ip_table_entries: int = 128,
        cplx_table_entries: int = 1024,
        cs_degree: int = 3,
        cplx_depth: int = 2,
        gs_degree: int = 4,
        extra_storage_bytes: int = 0,
    ):
        super().__init__(extra_storage_bytes=extra_storage_bytes)
        # ISO-storage scaling: each IP entry ~8B, CPLX entry ~2B
        self.ip_table_entries = ip_table_entries + extra_storage_bytes // 16
        self.cplx_table_entries = cplx_table_entries + (extra_storage_bytes // 4)
        self.cs_degree = cs_degree
        self.cplx_depth = cplx_depth
        self.gs_degree = gs_degree
        self._table: dict[int, _IpcpEntry] = {}
        self._lru: dict[int, int] = {}
        self._tick = 0
        # CPLX delta prediction: signature -> [delta, confidence]
        self._cplx: dict[int, list[int]] = {}
        # global stream detector
        self._gs_last_line = 0
        self._gs_dir = 0
        self._gs_conf = 0

    def _entry(self, pc: int) -> _IpcpEntry:
        self._tick += 1
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.ip_table_entries:
                victim = min(self._lru, key=self._lru.get)
                del self._table[victim]
                del self._lru[victim]
            entry = _IpcpEntry()
            self._table[pc] = entry
        self._lru[pc] = self._tick
        return entry

    def _train_cplx(self, signature: int, delta: int) -> None:
        slot = self._cplx.get(signature)
        if slot is None:
            if len(self._cplx) >= self.cplx_table_entries:
                self._cplx.pop(next(iter(self._cplx)))
            self._cplx[signature] = [delta, 1]
        elif slot[0] == delta:
            slot[1] = min(slot[1] + 1, 3)
        else:
            slot[1] -= 1
            if slot[1] <= 0:
                slot[0] = delta
                slot[1] = 1

    def _update_gs(self, line: int) -> None:
        delta = line - self._gs_last_line
        if delta in (1, 2) and self._gs_dir >= 0:
            self._gs_dir = 1
            self._gs_conf = min(self._gs_conf + 1, 7)
        elif delta in (-1, -2) and self._gs_dir <= 0:
            self._gs_dir = -1
            self._gs_conf = min(self._gs_conf + 1, 7)
        else:
            self._gs_conf = max(self._gs_conf - 1, 0)
            if self._gs_conf == 0:
                self._gs_dir = 0
        self._gs_last_line = line

    def on_access(self, pc: int, vaddr: int, hit: bool, t: float) -> list[PrefetchRequest]:
        """Classify the IP (CS > CPLX > GS) and emit accordingly."""
        line = vaddr >> LINE_SHIFT
        entry = self._entry(pc)
        self._update_gs(line)
        requests: list[PrefetchRequest] = []
        if entry.valid:
            delta = line - entry.last_line
            if delta != 0:
                # stride confidence
                if delta == entry.stride:
                    entry.conf = min(entry.conf + 1, 3)
                else:
                    entry.conf = max(entry.conf - 1, 0)
                    if entry.conf == 0:
                        entry.stride = delta
                # CPLX training against the previous signature
                self._train_cplx(entry.signature, delta)
                entry.signature = ((entry.signature << 3) ^ (delta & 0x3F)) & _SIG_MASK
        entry.last_line = line
        entry.valid = True

        if entry.conf >= 2 and entry.stride != 0:
            # CS class
            for k in range(1, self.cs_degree + 1):
                requests.append(self._request(line + entry.stride * k, pc, line, meta=k))
            return requests
        # CPLX class: follow the predicted delta chain
        sig = entry.signature
        target = line
        for depth in range(1, self.cplx_depth + 1):
            slot = self._cplx.get(sig)
            if slot is None or slot[1] < 2:
                break
            target += slot[0]
            requests.append(self._request(target, pc, line, meta=depth))
            sig = ((sig << 3) ^ (slot[0] & 0x3F)) & _SIG_MASK
        if requests:
            return requests
        # GS class
        if self._gs_conf >= 4 and self._gs_dir != 0:
            for k in range(1, self.gs_degree + 1):
                requests.append(self._request(line + self._gs_dir * k, pc, line, meta=k))
        return requests
