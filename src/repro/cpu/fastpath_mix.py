"""Record sources for the cores of a packed multi-core mix.

The mix scheduler (:func:`repro.cpu.multicore._drive_mix_packed`) runs each
core through the fused record kernel, :func:`repro.cpu.fastpath.core_stepper`,
and answers every ``finish`` and ``end`` event with a fresh
:func:`core_pass`: a pass over the core's packed columns, followed — for a
complete pack — by the *overflow tail*.

A finished core replays its trace to keep pressure on the shared LLC and
DRAM (Section IV-A2).  A complete pack ends on the record on which its core
finishes, so a replay that outruns the columns continues on the overflow
stream: the source workload advanced past the packed prefix, precisely the
stream the generator mix loop would be consuming.  The stepper feeds those
records through the *same* fused body (its contract holds for any record,
packed or live; replaying cores spend most of their time here, so leaving
this tail on ``engine.step`` would forfeit the speedup).  When a finite
stream ends, the core wraps to record 0 with the next pass, like the
generator loop's ``StopIteration`` restart.  Incomplete packs hold the
entire source trace and simply wrap.

The overflow stream is memoised per workload identity
(:func:`~repro.workloads.trace.workload_identity`) in an
:class:`_OverflowTail`: regenerating prefix + tail is the dominant
non-simulation cost of a cell, and the records are seed-deterministic, so
later cells of the same mix replay the cached records instead of re-running
the source generator (a workload without an identity regenerates its tail
on every pass).  The memo keeps them as the pack's four typed columns
(22 B per record), not as per-record tuples.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict, deque
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterator

from repro.workloads.packed import PackedTrace
from repro.workloads.trace import identity_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.synthetic import SyntheticWorkload
    from repro.workloads.trace import Record

__all__ = ["core_pass", "clear_overflow_tails"]


def _overflow_iterator(workload: "SyntheticWorkload", skip: int) -> Iterator["Record"]:
    """A fresh record stream advanced past the first ``skip`` records.

    A replaying core that exhausts its (complete) pack is, in generator-loop
    terms, consuming records ``skip, skip+1, ...`` of a fresh
    ``workload.generate()`` stream — records the pack never materialised.
    """
    it = iter(workload.generate())
    deque(islice(it, skip), maxlen=0)
    return it


class _OverflowTail:
    """Memoised overflow stream shared by every stepper of one workload.

    Regenerating the overflow tail is the dominant non-simulation cost of a
    packed mix cell: the source generator must replay the whole packed
    prefix (to advance its pattern/RNG state) and then re-produce every
    tail record, once per cell — and a mix study runs the same mix under
    several policies.  Records are deterministic per workload identity, so
    the tail is generated once per process and appended here; later cells
    (and same-workload cores within a cell) replay the cached records.

    The records live in four typed columns, the pack's own layout (pc and
    vaddr ``u64``, flags ``u16``, gap ``u32``).  Consumers hold their own
    cursor into them; whoever runs off the cached end pulls the shared
    ``source`` forward and appends.  Steppers are coroutines on one thread,
    so there is no append race — a consumer only yields control *between*
    records.
    """

    __slots__ = ("pcs", "vaddrs", "flags", "gaps", "source", "exhausted")

    def __init__(self) -> None:
        self.pcs = array("Q")
        self.vaddrs = array("Q")
        self.flags = array("H")
        self.gaps = array("I")
        #: created on first use so the prefix replay is deferred (and paid
        #: exactly once) — mirrors the lazy `_overflow_records` wrapper
        self.source: Iterator["Record"] | None = None
        self.exhausted = False


#: per-entry cap on memoised tail records (22 B per record in the columns;
#: ~0.5 M records keeps the worst entry near 11.5 MB) — a replay running past
#: the cap falls back to a private regenerated stream
_TAIL_RECORD_CAP = 1 << 19

#: records per column slice a consumer copies to replay the cached span
_SERVE_CHUNK = 4096

#: FIFO-bounded cache: (identity key, skip) -> _OverflowTail
_TAIL_CACHE: OrderedDict[tuple, _OverflowTail] = OrderedDict()
_TAIL_CACHE_CAPACITY = 8


def clear_overflow_tails() -> None:
    """Drop every memoised overflow tail (test isolation hook)."""
    _TAIL_CACHE.clear()


def _tail_records(workload: "SyntheticWorkload", skip: int) -> Iterator["Record"]:
    """The overflow stream, served from (and growing) the shared tail cache.

    Yields exactly the records ``_overflow_iterator(workload, skip)`` would:
    the cached span first, then freshly generated records which are appended
    as they are produced.  Past ``_TAIL_RECORD_CAP`` the consumer continues
    on a private stream advanced beyond everything already served.
    """
    identity = identity_key(workload)
    if identity is None:
        yield from _overflow_iterator(workload, skip)
        return
    key = (identity, skip)
    tail = _TAIL_CACHE.get(key)
    if tail is None:
        tail = _OverflowTail()
        _TAIL_CACHE[key] = tail
        while len(_TAIL_CACHE) > _TAIL_CACHE_CAPACITY:
            _TAIL_CACHE.popitem(last=False)
    pcs, vaddrs, flags, gaps = tail.pcs, tail.vaddrs, tail.flags, tail.gaps
    i = 0
    while True:
        n = len(pcs)
        while i < n:
            # the cached span, zipped at C speed from column slices small
            # enough that copying them costs no memory to speak of
            j = min(n, i + _SERVE_CHUNK)
            yield from zip(pcs[i:j], vaddrs[i:j], flags[i:j], gaps[i:j])
            i = j
        if tail.exhausted:
            return
        if i >= _TAIL_RECORD_CAP:
            yield from _overflow_iterator(workload, skip + i)
            return
        if tail.source is None:
            tail.source = _overflow_iterator(workload, skip)
        try:
            rec = next(tail.source)
        except StopIteration:
            tail.exhausted = True
            return
        pc, vaddr, flag, gap = rec
        pcs.append(pc)
        vaddrs.append(vaddr)
        flags.append(flag)
        gaps.append(gap)
        yield rec
        i += 1


def _overflow_records(packed: PackedTrace,
                      workload: "SyntheticWorkload") -> Iterator["Record"]:
    """The records after a pack's columns: the overflow tail, if complete."""
    # the skip inside the overflow stream regenerates the packed prefix (to
    # advance the source's pattern/RNG state), so it is deferred until a
    # pass actually outruns the pack; complete packs finish on their last
    # record, so this tail is only ever reached while replaying
    if packed.complete:
        yield from _tail_records(workload, len(packed))


def core_pass(packed: PackedTrace, workload: "SyntheticWorkload") -> Iterator["Record"]:
    """One pass over a mix core's record stream, from record 0 (see module doc)."""
    return chain(packed.records(), _overflow_records(packed, workload))
