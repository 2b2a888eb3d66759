"""Mutation shims: re-introduce fixed bugs to prove the checker catches them.

The validation layer is only trustworthy if a *known* bug trips it.  Each
shim here patches a fixed defect back into the simulator for the duration of
a ``with`` block; the differential suite (and the test suite) then asserts
that a validated run raises :class:`~repro.validate.InvariantViolation`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.mem.cache import Cache


@contextmanager
def reintroduce_stale_mshr_bug() -> Iterator[None]:
    """Patch :meth:`Cache.in_flight_misses` back to its pre-fix behaviour.

    The original implementation reported the raw MSHR-heap length, which
    includes completed fills awaiting lazy pruning and duplicate entries for
    re-registered lines — so the ``l1d_inflight_misses`` policy feature
    drifted far above the real miss-level parallelism.  A validated run
    under this shim must raise an ``mshr-accounting``
    :class:`InvariantViolation`.  A grid session's pool forked inside the
    block inherits the patch, so it is closed on exit.
    """
    from repro.experiments import parallel

    session = parallel._SESSION
    pool = session._pool if session is not None else None
    original = Cache.in_flight_misses

    def buggy(self: Cache, t: float) -> int:
        return len(self._mshr_heap)

    Cache.in_flight_misses = buggy  # type: ignore[method-assign]
    try:
        yield
    finally:
        Cache.in_flight_misses = original  # type: ignore[method-assign]
        if session is not None and session._pool is not pool:
            session.close()
