"""Common interface for L1D prefetchers.

L1D prefetchers operate in the *virtual* address space (first-level caches
are VIPT, Section II-A).  On every demand L1D access the simulator calls
:meth:`on_access`; the prefetcher returns zero or more
:class:`~repro.core.context.PrefetchRequest` candidates.  Whether a candidate
crosses a page — and what happens then — is the page-cross policy's business,
not the prefetcher's: all prefetchers here generate candidates without
clamping to page boundaries.
"""

from __future__ import annotations

from repro.core.context import PrefetchRequest
from repro.vm.address import LINE_SHIFT


class L1dPrefetcher:
    """Abstract L1D prefetcher."""

    name = "none"

    #: True when :meth:`on_access` output is a function of the ``(pc, vaddr)``
    #: sequence alone: ``hit`` and ``t`` are ignored and :meth:`on_fill` is
    #: the base no-op.  One pass of a fresh instance over a trace's memory
    #: records then yields the candidate stream every engine would see, so
    #: the packed kernel may replay it (:class:`repro.workloads.packed.PrefetchStream`)
    #: instead of calling the prefetcher.  A subclass that reads ``hit``/``t``
    #: or learns from fills must set it back to False.
    replayable = False

    def __init__(self, *, extra_storage_bytes: int = 0):
        #: ISO-storage knob: DRIPPER's budget handed to the prefetcher instead
        self.extra_storage_bytes = extra_storage_bytes

    def on_access(self, pc: int, vaddr: int, hit: bool, t: float) -> list[PrefetchRequest]:
        """Observe a demand access and return prefetch candidates."""
        raise NotImplementedError

    def on_fill(self, vaddr: int, latency: float) -> None:
        """Optional hook: a demand L1D miss completed with this latency
        (the timely-Berti variant uses it to calibrate its horizon)."""

    @staticmethod
    def _request(target_line: int, pc: int, trigger_line: int, meta: int = 0) -> PrefetchRequest:
        """Build a request; `meta` carries the degree index within a burst
        (consumed only by specialized features, see repro.core.specialized)."""
        return PrefetchRequest(target_line << LINE_SHIFT, pc, target_line - trigger_line, meta)


class NoPrefetcher(L1dPrefetcher):
    """Disabled prefetcher (baseline plumbing)."""

    name = "none"

    def on_access(self, pc: int, vaddr: int, hit: bool, t: float) -> list[PrefetchRequest]:
        return []
