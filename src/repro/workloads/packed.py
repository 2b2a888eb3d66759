"""Packed trace buffers: materialise a workload once, replay it many times.

A :class:`PackedTrace` holds a finite prefix of a workload's record stream as
four flat ``array`` columns (pc ``u64``, vaddr ``u64``, flags ``u16``, gap
``u32`` — the same widths the native on-disk format uses).  Packing runs the
generator exactly once; every subsequent replay iterates plain C arrays, so
the per-record cost of pattern state machines and seeded RNG draws is paid a
single time per (workload, window) instead of once per simulation.

The packed window mirrors the drive loop's measurement semantics precisely:
records are buffered until the measured region — which starts at the first
record boundary *at or after* ``warmup`` instructions — spans ``sim``
instructions.  A packed trace is therefore always long enough for
:func:`repro.cpu.fastpath.drive_packed` (and for :func:`repro.cpu.simulator.drive`
over its replay), including the warm-up-overshoot case, without guessing a
slack margin.

:func:`get_packed` adds a small process-wide cache keyed by workload identity
and window, which is what lets the grid cells of
:mod:`repro.experiments.parallel` share one materialisation across every
(prefetcher × policy) cell of the same workload — in the calling process or,
under ``jobs>1``, in each worker that runs the workload's chunk.
"""

from __future__ import annotations

import sys
from array import array
from collections import OrderedDict
from itertools import accumulate, repeat
from operator import add
from typing import Callable, Iterator, Optional

from repro.vm.address import VA_MASK
from repro.workloads.trace import (
    BRANCH,
    DEPENDS,
    LOAD,
    MISPREDICT,
    Record,
    STORE,
    Workload,
    identity_key,
)


#: process-wide pack cache capacity (packs are ~22 bytes/record; the default
#: 80k-instruction window is ~0.5 MB, so 32 entries stay well under 32 MB)
_CACHE_CAPACITY = 32


def _byte_table(test: Callable[[int], object]) -> bytes:
    """``bytes.translate`` table mapping each byte to 1 where ``test`` holds, else 0."""
    return bytes(1 if test(b) else 0 for b in range(256))


def _le_bytes(col: array) -> bytes:
    """A column's raw bytes in little-endian order, whatever the host's."""
    if sys.byteorder == "big":
        col = array(col.typecode, col)
        col.byteswap()
    return col.tobytes()


def _bits(mask: bytes) -> int:
    """A 0/1 byte mask as an int, one byte per record (OR-able in C)."""
    return int.from_bytes(mask, "little")


def _above(raw: bytes, width: int, shift: int) -> int:
    """Bits of ``value >> shift != 0`` for little-endian ``width``-byte values.

    Tests each byte plane (``raw[j::width]``) at C speed: the plane holding
    bit ``shift`` under a mask of its bits at and above ``shift``, every
    higher plane whole.
    """
    low = shift // 8
    keep = (0xFF << (shift % 8)) & 0xFF
    acc = _bits(raw[low::width].translate(_byte_table(lambda b: b & keep)))
    nonzero = _byte_table(bool)
    for j in range(low + 1, width):
        acc |= _bits(raw[j::width].translate(nonzero))
    return acc


def _changed(raw: bytes, shift: int) -> bytes:
    """0/1 mask of ``v[i] >> shift != v[i-1] >> shift`` over little-endian u64s.

    Record 0 always counts as changed.  The XOR of every adjacent pair is
    one big-int XOR of the column against itself shifted by a record.
    """
    n = len(raw) // 8
    if n <= 1:
        return b"\x01" * n
    x = int.from_bytes(raw[8:], "little") ^ int.from_bytes(raw[:-8], "little")
    return b"\x01" + _above(x.to_bytes(8 * (n - 1), "little"), 8, shift).to_bytes(
        n - 1, "little")


class PackIndex:
    """Derived per-record columns the phase-sampling profile reads.

    Built once per pack (lazily, on the first sampled run) as stdlib
    columns: ``cum``, an ``array('q')`` of the absolute instruction count
    after each record (engines start at 0), and eight ``bytes`` 0/1 masks,
    one byte per record, so a per-interval count is ``mask.count(1, s,
    e)``.  :func:`repro.experiments.sampling.signatures` reduces them into
    per-interval rates.  The masks: ``event`` flags records that leave the
    fused kernel's plain hit path by their flags or gap alone (branches,
    forced mispredicts, dependent loads, non-memory records, and gaps large
    enough to trigger straight-line I-fetch); ``iline_change``,
    ``page_change`` and ``line_change`` flag records whose pc I-line, data
    page or data line differs from the previous record's (the first record
    always changes: engines start with ``_last_iline = -1``); ``load``,
    ``store``, ``branch`` and ``mispredict`` copy one flag bit each.

    Every mask is built with whole-column byte operations (``translate``
    over byte planes, XOR of adjacent records as one big int), never a
    per-record Python loop: 16 B per record in all.
    """

    __slots__ = ("cum", "event", "iline_change", "page_change", "line_change",
                 "load", "store", "branch", "mispredict")

    def __init__(self, packed: "PackedTrace"):
        n = len(packed)
        self.cum = array("q", accumulate(map(add, packed.gaps, repeat(1))))
        # every defined flag bit is below 64, so the low byte of each u16
        # flag decides them all (trace files may set higher bits)
        low = _le_bytes(packed.flags)[0::2]

        def flag(test: Callable[[int], object]) -> bytes:
            return low.translate(_byte_table(test))

        self.event = (
            _bits(flag(lambda b: b & (BRANCH | MISPREDICT | DEPENDS)
                       or not b & (LOAD | STORE)))
            | _above(_le_bytes(packed.gaps), 4, 4)  # gap >= 16
        ).to_bytes(n, "little")
        pcs = _le_bytes(packed.pcs)
        vaddrs = _le_bytes(packed.vaddrs)
        self.iline_change = _changed(pcs, 6)
        self.page_change = _changed(vaddrs, 12)
        self.line_change = _changed(vaddrs, 6)
        self.load = flag(lambda b: b & LOAD)
        self.store = flag(lambda b: b & STORE)
        self.branch = flag(lambda b: b & BRANCH)
        self.mispredict = flag(lambda b: b & MISPREDICT)


def _narrowest(values: array) -> array:
    """``values`` (signed) in the narrowest typecode that holds every one."""
    for code in ("b", "h", "i"):
        try:
            return array(code, values)
        except OverflowError:
            continue
    return values


class PrefetchStream:
    """The prefetch candidates one replayable L1D prefetcher proposes over a pack.

    Built by a single pass of a fresh prefetcher over the pack's memory
    records (see :attr:`repro.prefetch.base.L1dPrefetcher.replayable`) and
    stored as four compact columns: ``ends[k]`` closes the candidate run of
    the k-th memory record (its run is ``[ends[k-1], ends[k])``), and each
    candidate keeps its VA-masked target address, its signed line delta
    from the trigger and its rank (the request's ``meta``).  The packed
    kernel replays it in place of calling the prefetcher.
    """

    __slots__ = ("ends", "targets", "deltas", "ranks")

    def __init__(self, packed: "PackedTrace", prefetcher) -> None:
        ends = array("I")
        targets = array("Q")
        deltas = array("q")
        ranks = array("q")
        end = ends.append
        target = targets.append
        delta = deltas.append
        rank = ranks.append
        on_access = prefetcher.on_access
        mem = LOAD | STORE
        for pc, vaddr, flag in zip(packed.pcs, packed.vaddrs, packed.flags):
            if flag & mem:
                for req in on_access(pc, vaddr, True, 0.0):
                    target(req.vaddr & VA_MASK)
                    delta(req.delta)
                    rank(req.meta)
                end(len(targets))
        self.ends = ends
        self.targets = targets
        self.deltas = _narrowest(deltas)
        self.ranks = _narrowest(ranks)

    def __len__(self) -> int:
        """Number of recorded candidates."""
        return len(self.targets)

    def __eq__(self, other: object) -> bool:
        """Column-for-column equality (element values, whatever the typecodes)."""
        if not isinstance(other, PrefetchStream):
            return NotImplemented
        return (self.ends == other.ends and self.targets == other.targets
                and self.deltas == other.deltas and self.ranks == other.ranks)

    __hash__ = None  # type: ignore[assignment]

    def nbytes(self) -> int:
        """Buffer size in bytes (the four columns)."""
        return sum(col.itemsize * len(col)
                   for col in (self.ends, self.targets, self.deltas, self.ranks))


class PackedTrace:
    """A finite, column-packed prefix of one workload's trace."""

    __slots__ = ("name", "suite", "pcs", "vaddrs", "flags", "gaps",
                 "instructions", "warmup", "sim", "complete",
                 "_index", "_streams")

    def __init__(self, name: str, suite: str, pcs: array, vaddrs: array,
                 flags: array, gaps: array, *, warmup: int, sim: int,
                 instructions: int, complete: bool):
        self.name = name
        self.suite = suite
        self.pcs = pcs
        self.vaddrs = vaddrs
        self.flags = flags
        self.gaps = gaps
        #: total instructions the packed records account for (incl. gaps)
        self.instructions = instructions
        #: the (warmup, sim) window this pack was sized for
        self.warmup = warmup
        self.sim = sim
        #: False when the source trace ended before the window was covered
        #: (finite trace shorter than warm-up + measured region)
        self.complete = complete
        #: lazily built sampling-profile index
        self._index = None
        #: lazily built prefetch-candidate streams, keyed by
        #: (prefetcher name, prefetcher extra storage bytes)
        self._streams: dict[tuple[str, int], PrefetchStream] = {}

    @classmethod
    def from_workload(cls, workload: Workload, warmup: int, sim: int) -> "PackedTrace":
        """Materialise enough of ``workload`` to cover warm-up + measurement.

        Replicates the drive loop's boundary logic: measurement begins at the
        first record boundary at or after ``warmup`` instructions, and the
        pack ends at the first record boundary at or after ``sim`` measured
        instructions — so a replay can never run dry mid-window even when a
        record's gap overshoots the warm-up boundary.
        """
        pcs = array("Q")
        vaddrs = array("Q")
        flags = array("H")
        gaps = array("I")
        append_pc = pcs.append
        append_va = vaddrs.append
        append_fl = flags.append
        append_gap = gaps.append
        total = 0
        measure_start: Optional[int] = None
        complete = False
        for pc, vaddr, flag, gap in workload.generate():
            append_pc(pc)
            append_va(vaddr)
            append_fl(flag)
            append_gap(gap)
            total += 1 + gap
            if measure_start is None and total >= warmup:
                measure_start = total
            if measure_start is not None and total - measure_start >= sim:
                complete = True
                break
        return cls(
            workload.name, getattr(workload, "suite", "PACKED"),
            pcs, vaddrs, flags, gaps,
            warmup=warmup, sim=sim, instructions=total, complete=complete,
        )

    def __len__(self) -> int:
        """Number of packed records."""
        return len(self.pcs)

    def records(self) -> Iterator[Record]:
        """Iterate the packed records as plain ``(pc, vaddr, flags, gap)``."""
        return zip(self.pcs, self.vaddrs, self.flags, self.gaps)

    def replay(self) -> "PackedWorkload":
        """Wrap this pack as a restartable :class:`Workload`."""
        return PackedWorkload(self)

    def nbytes(self) -> int:
        """Approximate buffer size in bytes (the four columns)."""
        return sum(col.itemsize * len(col)
                   for col in (self.pcs, self.vaddrs, self.flags, self.gaps))

    def index(self) -> PackIndex:
        """The pack's :class:`PackIndex` (built once, cached)."""
        if self._index is None:
            self._index = PackIndex(self)
        return self._index

    def prefetch_stream(self, prefetcher: str, extra_storage: int = 0) -> PrefetchStream:
        """The pack's :class:`PrefetchStream` for one prefetcher (built once, cached).

        Built from a fresh ``make_l1d_prefetcher(prefetcher,
        extra_storage_bytes=extra_storage)``, which must declare itself
        ``replayable``.  The stream lives exactly as long as the pack (it
        leaves the process with the pack's pack-cache entry).
        """
        key = (prefetcher, extra_storage)
        stream = self._streams.get(key)
        if stream is None:
            from repro.obs.tracing import trace_span
            from repro.prefetch import make_l1d_prefetcher

            source = make_l1d_prefetcher(prefetcher, extra_storage_bytes=extra_storage)
            if not source.replayable:
                raise ValueError(
                    f"prefetcher {prefetcher!r} does not declare a replayable "
                    "candidate stream (its output depends on more than pc/vaddr)")
            with trace_span("prefetch-stream", workload=self.name,
                            prefetcher=prefetcher, extra_storage=extra_storage):
                stream = self._streams[key] = PrefetchStream(self, source)
        return stream


class PackedWorkload:
    """A :class:`Workload` replaying a :class:`PackedTrace`.

    Unlike the infinite synthetic generators, the replay is finite: it ends
    with the pack, which covers exactly the (warmup, sim) window the pack was
    built for.  Driving it with a larger window raises the drive loop's
    normal truncation error.
    """

    def __init__(self, packed: PackedTrace):
        self.packed = packed
        self.name = packed.name
        self.suite = packed.suite

    def generate(self) -> Iterator[Record]:
        """Fresh iterator over the packed records (restartable)."""
        return self.packed.records()


#: (identity key, warmup, sim) -> pack, least recently used first
_PACK_CACHE: OrderedDict[tuple, PackedTrace] = OrderedDict()

#: running byte total of the locally cached packs, maintained incrementally
#: on insert/evict/clear so the gauge update is O(1) on the pack hot path
_CACHE_BYTES = 0

#: lazily bound (hits, misses, evictions, bytes-gauge) registry
#: instruments — bound on first use because `repro.workloads` and `repro.obs`
#: import each other's packages (same cycle `log_event` dodges below)
_PACK_METRICS = None


def _pack_metrics():
    global _PACK_METRICS
    if _PACK_METRICS is None:
        from repro.obs.metrics import get_metrics

        reg = get_metrics()
        _PACK_METRICS = (
            reg.counter("pack_cache.hits", "pack-cache lookups served locally"),
            reg.counter("pack_cache.misses", "pack-cache lookups that packed"),
            reg.counter("pack_cache.evictions", "packs evicted by the LRU bound"),
            reg.gauge("pack_cache.bytes", "resident bytes of locally cached packs"),
        )
    return _PACK_METRICS


def _update_bytes_gauge() -> None:
    """Publish the running byte total (O(1); the total is maintained
    incrementally on insert/evict/clear, never re-summed on the hot path)."""
    _pack_metrics()[3].set(_CACHE_BYTES)


def pack_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters plus current size/capacity (a copy).

    The counters live in the process-wide
    :class:`~repro.obs.metrics.MetricsRegistry` (so grid workers ship them
    back with their chunks); this accessor keeps the historical dict shape.
    """
    hits, misses, evictions, _bytes = _pack_metrics()
    return {
        "hits": int(hits.total()),
        "misses": int(misses.total()),
        "evictions": int(evictions.total()),
        "size": len(_PACK_CACHE),
        "capacity": _CACHE_CAPACITY,
    }


def _evict_oldest() -> None:
    global _CACHE_BYTES
    _key, packed = _PACK_CACHE.popitem(last=False)
    _CACHE_BYTES -= packed.nbytes()
    evictions = _pack_metrics()[2]
    evictions.inc()
    # observability: a thrashing cache (grid wider than the capacity) shows
    # up as a steady eviction stream on the repro.obs logger
    from repro.obs import log_event

    log_event(
        "pack-cache-eviction",
        workload=packed.name,
        bytes=packed.nbytes(),
        evictions=int(evictions.total()),
        capacity=_CACHE_CAPACITY,
    )


def get_packed(workload: Workload, warmup: int, sim: int) -> PackedTrace:
    """Return a (cached) :class:`PackedTrace` covering the given window.

    The cache is process-wide, LRU-bounded (``_CACHE_CAPACITY`` entries) and
    keyed on (:func:`~repro.workloads.trace.workload_identity`, window); a
    workload without an identity is packed on every call.  Each grid worker
    process builds its own packs (the arrays are picklable, but shipping
    them per cell would cost more than packing once per worker).
    """
    metrics = _pack_metrics()
    identity = identity_key(workload)
    key = (identity, warmup, sim)
    packed = _PACK_CACHE.get(key)  # never holds an identity-less key
    if packed is not None:
        metrics[0].inc()
        _PACK_CACHE.move_to_end(key)
        return packed
    metrics[1].inc()
    from repro.obs.tracing import trace_span

    with trace_span("pack", workload=workload.name, warmup=warmup, sim=sim):
        packed = PackedTrace.from_workload(workload, warmup, sim)
    if identity is None:
        return packed
    global _CACHE_BYTES
    _PACK_CACHE[key] = packed
    _CACHE_BYTES += packed.nbytes()
    while len(_PACK_CACHE) > _CACHE_CAPACITY:
        _evict_oldest()
    _update_bytes_gauge()
    return packed


def clear_pack_cache() -> None:
    """Drop every cached pack (tests, forked workers, memory pressure).

    Counters survive a clear (they audit process lifetime, not cache
    contents); drops are not counted as evictions.  Forked grid workers
    additionally reset the whole metrics registry
    (:func:`repro.obs.metrics.reset_metrics`) so the parent's warm-up packs
    are not double-counted in merged grid metrics.
    """
    global _CACHE_BYTES
    _PACK_CACHE.clear()
    _CACHE_BYTES = 0
    _update_bytes_gauge()
