"""Runtime invariant checking for simulation runs.

An :class:`InvariantChecker` attaches to a built :class:`CoreEngine` through
opt-in seams (chained ``epoch_listener``, instance-level method wraps), so
an unvalidated run pays nothing.  While
attached it asserts the conservation laws the paper's headline counters rest
on:

* **PgcStats** — ``issued + discarded == candidates`` (every page-cross
  candidate is resolved exactly once), ``discarded_no_translation <=
  discarded``, ``same_translation <= candidates``;
* **HitMissStats** — ``hits + misses == accesses`` for every cache, TLB and
  PSC level, demand traffic a subset of total traffic, and every warm-up
  snapshot behind its live counter (measured deltas never negative);
* **capacity** — cache/TLB/PSC occupancy never exceeds ``sets × ways``
  (resp. ``entries``);
* **MSHR accounting** — the in-flight miss count each cache reports (the
  ``l1d_inflight_misses`` policy feature) equals an independent recount of
  distinct incomplete misses, i.e. it is pruned of completed fills and
  deduplicated (the seed's optimistic slot allocation admits transient
  oversubscription under bursts, so a hard capacity bound is deliberately
  *not* asserted — the accounting, not the queueing model, is the law);
* **prefetch accounting** — each prefetched block resolves to at most one of
  useful/useless while running and exactly one after ``finalize()``; the
  page-cross subset and late counts never exceed their supersets;
* **timeline monotonicity** — ``instructions`` strictly increasing,
  ``retire_t`` nondecreasing, and every cache fill's ready time at or after
  the fill itself.

A failed law raises a structured :class:`InvariantViolation` carrying the
offending counter snapshot; when the run has an
:class:`~repro.obs.Observability` bundle with a journal, the violation is
journaled as an ``invariant_violation`` record before the raise.

To add an invariant: write a ``_check_*`` helper that calls :meth:`_fail`
with a name, a human-readable message, and the counter snapshot that proves
the breakage, then call it from :meth:`check_epoch` (per-epoch laws) or
:meth:`check_final` (end-of-run laws).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import CoreEngine
    from repro.cpu.simulator import SimResult
    from repro.mem.cache import Cache
    from repro.obs import Observability
    from repro.vm.tlb import Tlb

#: bump when the violation-record layout changes incompatibly
VIOLATION_SCHEMA = 1


def _rebuild_violation(invariant: str, message: str, snapshot: dict,
                       scope: str, workload: str) -> "InvariantViolation":
    return InvariantViolation(invariant, message, snapshot, scope=scope, workload=workload)


class InvariantViolation(AssertionError):
    """A conservation law failed; carries the counters that broke it."""

    def __init__(self, invariant: str, message: str, snapshot: dict[str, Any],
                 *, scope: str = "run", workload: str = ""):
        where = f"{scope}, workload {workload}" if workload else scope
        super().__init__(f"[{invariant}] {message} ({where}) counters={snapshot}")
        self.invariant = invariant
        self.message = message
        self.snapshot = snapshot
        self.scope = scope
        self.workload = workload

    def __reduce__(self):  # crosses process-pool boundaries intact
        return _rebuild_violation, (self.invariant, self.message, self.snapshot,
                                    self.scope, self.workload)

    def to_record(self) -> dict[str, Any]:
        """JSON-serialisable journal record for this violation."""
        return {
            "schema": VIOLATION_SCHEMA,
            "kind": "invariant_violation",
            "invariant": self.invariant,
            "message": self.message,
            "scope": self.scope,
            "workload": self.workload,
            "snapshot": dict(self.snapshot),
        }


def _unowned(fn: Callable[..., Any]) -> Callable[..., Any]:
    """`fn` minus its bound object: a wrap stored on that object would
    otherwise close a reference cycle (DESIGN.md §16)."""
    if not hasattr(fn, "__self__"):
        return fn  # an earlier wrap (each mix core's checker wraps the shared LLC)
    ref = weakref.WeakMethod(fn)
    return lambda *args, **kw: ref()(*args, **kw)


class InvariantChecker:
    """Asserts conservation laws over a live :class:`CoreEngine`.

    Attach once per engine before driving it; the checker chains any
    already-installed ``epoch_listener`` (e.g. a timeline recorder) and
    wraps ``begin_measurement`` and each cache's ``fill`` at instance level,
    so detached engines are untouched and unvalidated runs pay zero cost.
    """

    def __init__(self, *, obs: Optional["Observability"] = None, workload: str = ""):
        self.obs = obs
        self.workload = workload
        #: number of completed check passes (epoch + final)
        self.checks = 0
        #: violations raised so far (a run normally stops at the first)
        self.violations = 0
        #: resident prefetched/pcb blocks with unresolved usefulness at the
        #: warm-up boundary — the measured-region useful+useless carry-over
        self.snapshot_resident_prefetched = 0
        self.snapshot_resident_pcb = 0
        self._last_instructions = -1
        self._last_retire_t = float("-inf")

    # ------------------------------------------------------------------
    # wiring

    def attach(self, engine: "CoreEngine") -> None:
        """Hook the checker into `engine` (chains existing listeners)."""
        prev_listener = engine.epoch_listener

        def on_epoch(eng: "CoreEngine", epoch: Any) -> None:
            if prev_listener is not None:
                prev_listener(eng, epoch)
            self.check_epoch(eng)

        engine.epoch_listener = on_epoch

        h = engine.hierarchy
        prev_begin = _unowned(engine.begin_measurement)

        def begin_measurement() -> None:
            prev_begin()
            pf, pcb = h.l1d.resident_prefetch_counts()
            self.snapshot_resident_prefetched = pf
            self.snapshot_resident_pcb = pcb

        engine.begin_measurement = begin_measurement
        for cache in (h.l1i, h.l1d, h.l2c, h.llc):
            self._wrap_fill(cache)

    def _wrap_fill(self, cache: "Cache") -> None:
        original = _unowned(cache.fill)
        name = cache.name

        def checked_fill(line: int, t: float, ready: float, *flags: bool, **kw: bool) -> None:
            if ready < t:
                self._fail(
                    "fill-ready-monotonic",
                    f"{name} fill with ready time in the past",
                    {"cache": name, "line": line, "t": t, "ready": ready},
                    scope="fill",
                )
            original(line, t, ready, *flags, **kw)

        cache.fill = checked_fill

    # ------------------------------------------------------------------
    # failure path

    def _fail(self, invariant: str, message: str, snapshot: dict[str, Any],
              *, scope: str) -> None:
        self.violations += 1
        violation = InvariantViolation(
            invariant, message, snapshot, scope=scope, workload=self.workload
        )
        if self.obs is not None and self.obs.journal is not None:
            self.obs.journal.append_record(violation.to_record())
        raise violation

    # ------------------------------------------------------------------
    # structure-level laws

    def _check_stats(self, name: str, stats: Any, scope: str) -> None:
        if stats.hits + stats.misses != stats.accesses:
            self._fail(
                "hit-miss-conservation",
                f"{name}: hits + misses != accesses",
                {"structure": name, "accesses": stats.accesses,
                 "hits": stats.hits, "misses": stats.misses},
                scope=scope,
            )
        if min(stats.measured_accesses, stats.measured_hits, stats.measured_misses) < 0:
            self._fail(
                "snapshot-behind-counter",
                f"{name}: warm-up snapshot ahead of live counters",
                {"structure": name,
                 "measured_accesses": stats.measured_accesses,
                 "measured_hits": stats.measured_hits,
                 "measured_misses": stats.measured_misses},
                scope=scope,
            )

    def _check_cache(self, cache: "Cache", now: float, scope: str) -> None:
        params = cache.params
        capacity = params.sets * params.ways
        occupancy = cache.occupancy()
        if occupancy > capacity:
            self._fail(
                "cache-capacity",
                f"{cache.name}: occupancy exceeds capacity",
                {"cache": cache.name, "occupancy": occupancy, "capacity": capacity},
                scope=scope,
            )
        self._check_stats(f"{cache.name}.stats", cache.stats, scope)
        self._check_stats(f"{cache.name}.demand_stats", cache.demand_stats, scope)
        if cache.demand_stats.accesses > cache.stats.accesses:
            self._fail(
                "demand-subset",
                f"{cache.name}: demand accesses exceed total accesses",
                {"cache": cache.name, "demand": cache.demand_stats.accesses,
                 "total": cache.stats.accesses},
                scope=scope,
            )
        # independent recount: distinct heap lines whose fetch is incomplete
        # per the line-keyed map — what in_flight_misses must report once
        # completed entries are pruned and duplicates collapsed
        reported = cache.in_flight_misses(now)
        incomplete = {
            line for ready, line in cache._mshr_heap
            if ready > now and cache._outstanding.get(line, 0.0) > now
        }
        if reported != len(incomplete):
            self._fail(
                "mshr-accounting",
                f"{cache.name}: reported in-flight misses disagree with the "
                "pruned, deduplicated recount",
                {"cache": cache.name, "t": now, "reported": reported,
                 "incomplete": len(incomplete), "heap": len(cache._mshr_heap),
                 "mshr_entries": params.mshr_entries},
                scope=scope,
            )
        pf = {
            "fills": cache.prefetch_fills,
            "useful": cache.prefetch_useful,
            "useless": cache.prefetch_useless,
            "late": cache.prefetch_late,
            "pgc_fills": cache.pgc_fills,
            "pgc_useful": cache.pgc_useful,
            "pgc_useless": cache.pgc_useless,
        }
        if pf["useful"] + pf["useless"] > pf["fills"]:
            self._fail(
                "prefetch-resolution",
                f"{cache.name}: more prefetches resolved than filled",
                {"cache": cache.name, **pf},
                scope=scope,
            )
        if pf["late"] > pf["useful"]:
            self._fail(
                "prefetch-late-subset",
                f"{cache.name}: late prefetches exceed useful prefetches",
                {"cache": cache.name, **pf},
                scope=scope,
            )
        if (pf["pgc_fills"] > pf["fills"] or pf["pgc_useful"] > pf["useful"]
                or pf["pgc_useless"] > pf["useless"]):
            self._fail(
                "pgc-subset",
                f"{cache.name}: page-cross counters exceed their prefetch supersets",
                {"cache": cache.name, **pf},
                scope=scope,
            )
        if any(value < 0 for value in cache.measured_prefetch.values()):
            self._fail(
                "snapshot-behind-counter",
                f"{cache.name}: prefetch snapshot ahead of live counters",
                {"cache": cache.name, **cache.measured_prefetch},
                scope=scope,
            )

    def _check_tlb(self, tlb: "Tlb", scope: str) -> None:
        params = tlb.params
        name = params.name
        occupancy = tlb.occupancy()
        if occupancy > params.entries:
            self._fail(
                "tlb-capacity",
                f"{name}: occupancy exceeds entry count",
                {"tlb": name, "occupancy": occupancy, "entries": params.entries},
                scope=scope,
            )
        self._check_stats(f"{name}.stats", tlb.stats, scope)
        if tlb.prefetch_hits > tlb.stats.hits:
            self._fail(
                "tlb-prefetch-subset",
                f"{name}: prefetch hits exceed total hits",
                {"tlb": name, "prefetch_hits": tlb.prefetch_hits, "hits": tlb.stats.hits},
                scope=scope,
            )
        if tlb.measured_prefetch_hits < 0 or tlb.measured_prefetch_evicted_unused < 0:
            self._fail(
                "snapshot-behind-counter",
                f"{name}: prefetch snapshot ahead of live counters",
                {"tlb": name,
                 "measured_prefetch_hits": tlb.measured_prefetch_hits,
                 "measured_prefetch_evicted_unused": tlb.measured_prefetch_evicted_unused},
                scope=scope,
            )

    def _check_pgc(self, engine: "CoreEngine", scope: str) -> None:
        pgc = engine.pgc
        counters = {
            "candidates": pgc.candidates,
            "issued": pgc.issued,
            "discarded": pgc.discarded,
            "discarded_no_translation": pgc.discarded_no_translation,
            "same_translation": pgc.same_translation,
        }
        if pgc.issued + pgc.discarded != pgc.candidates:
            self._fail(
                "pgc-conservation",
                "issued + discarded != candidates",
                counters,
                scope=scope,
            )
        if pgc.discarded_no_translation > pgc.discarded:
            self._fail(
                "pgc-discard-subset",
                "discarded_no_translation exceeds discarded",
                counters,
                scope=scope,
            )
        if pgc.same_translation > pgc.candidates:
            self._fail(
                "pgc-same-translation-subset",
                "same_translation exceeds candidates",
                counters,
                scope=scope,
            )
        if any(delta < 0 for delta in pgc.measured().values()):
            self._fail(
                "snapshot-behind-counter",
                "page-cross snapshot ahead of live counters",
                {**counters, **{f"measured_{k}": v for k, v in pgc.measured().items()}},
                scope=scope,
            )

    def _check_timeline(self, engine: "CoreEngine", scope: str) -> None:
        if engine.instructions <= self._last_instructions:
            self._fail(
                "instructions-monotonic",
                "instruction count did not advance between checks",
                {"instructions": engine.instructions, "previous": self._last_instructions},
                scope=scope,
            )
        if engine.retire_t < self._last_retire_t:
            self._fail(
                "retire-monotonic",
                "retire_t went backwards between checks",
                {"retire_t": engine.retire_t, "previous": self._last_retire_t},
                scope=scope,
            )
        self._last_instructions = engine.instructions
        self._last_retire_t = engine.retire_t
        if engine.measuring and (engine.measured_instructions < 0 or engine.measured_cycles < 0):
            self._fail(
                "measured-region-nonnegative",
                "measured instructions/cycles negative",
                {"measured_instructions": engine.measured_instructions,
                 "measured_cycles": engine.measured_cycles},
                scope=scope,
            )

    # ------------------------------------------------------------------
    # entry points

    def check_epoch(self, engine: "CoreEngine") -> None:
        """Assert every per-epoch law (invoked from the chained listener)."""
        scope = f"epoch@{engine.instructions}"
        now = engine.retire_t
        self._check_timeline(engine, scope)
        self._check_pgc(engine, scope)
        h = engine.hierarchy
        for cache in (h.l1i, h.l1d, h.l2c, h.llc):
            self._check_cache(cache, now, scope)
        self._check_stats("llc_core_stats", h.llc_core_stats, scope)
        for tlb in (engine.dtlb, engine.itlb, engine.stlb):
            self._check_tlb(tlb, scope)
        for level, psc in engine.walker.psc.levels.items():
            self._check_stats(f"psc.L{level}", psc.stats, scope)
            if len(psc._store) > psc.entries:
                self._fail(
                    "psc-capacity",
                    f"PSC L{level}: occupancy exceeds entry count",
                    {"level": level, "occupancy": len(psc._store), "entries": psc.entries},
                    scope=scope,
                )
        walker = engine.walker
        if walker.measured_demand_walks < 0 or walker.measured_speculative_walks < 0:
            self._fail(
                "snapshot-behind-counter",
                "walker snapshot ahead of live counters",
                {"demand_walks": walker.demand_walks,
                 "speculative_walks": walker.speculative_walks,
                 "measured_demand_walks": walker.measured_demand_walks,
                 "measured_speculative_walks": walker.measured_speculative_walks},
                scope=scope,
            )
        self.checks += 1

    def check_final(self, engine: "CoreEngine", result: "SimResult") -> None:
        """Assert end-of-run laws over the finalized engine and its result."""
        scope = "final"
        self._last_instructions = engine.instructions - 1  # allow a no-op epoch
        self.check_epoch(engine)
        h = engine.hierarchy
        for cache in (h.l1i, h.l1d, h.l2c, h.llc):
            # finalize() has resolved every outstanding prefetched block, so
            # the running inequality tightens to an exact conservation law
            resolved = cache.prefetch_useful + cache.prefetch_useless
            if resolved != cache.prefetch_fills:
                self._fail(
                    "prefetch-resolution-final",
                    f"{cache.name}: finalized useful + useless != fills",
                    {"cache": cache.name, "useful": cache.prefetch_useful,
                     "useless": cache.prefetch_useless, "fills": cache.prefetch_fills},
                    scope=scope,
                )
        self._check_result(engine, result)
        self.checks += 1

    def _check_result(self, engine: "CoreEngine", result: "SimResult") -> None:
        scope = "final"
        if result.pgc_issued + result.pgc_discarded != result.pgc_candidates:
            self._fail(
                "pgc-conservation",
                "result: pgc_issued + pgc_discarded != pgc_candidates",
                {"candidates": result.pgc_candidates, "issued": result.pgc_issued,
                 "discarded": result.pgc_discarded},
                scope=scope,
            )
        measured_pgc_fills = engine.hierarchy.l1d.measured_prefetch["pgc_fills"]
        if result.pgc_useful + result.pgc_useless > measured_pgc_fills + self.snapshot_resident_pcb:
            self._fail(
                "pgc-resolution-bound",
                "result: pgc_useful + pgc_useless exceed measured fills plus "
                "warm-up resident carry-over",
                {"pgc_useful": result.pgc_useful, "pgc_useless": result.pgc_useless,
                 "measured_pgc_fills": measured_pgc_fills,
                 "resident_at_snapshot": self.snapshot_resident_pcb},
                scope=scope,
            )
        if (result.prefetch_useful + result.prefetch_useless
                > result.prefetch_fills + self.snapshot_resident_prefetched):
            self._fail(
                "prefetch-resolution-bound",
                "result: useful + useless exceed measured fills plus warm-up "
                "resident carry-over",
                {"prefetch_useful": result.prefetch_useful,
                 "prefetch_useless": result.prefetch_useless,
                 "prefetch_fills": result.prefetch_fills,
                 "resident_at_snapshot": self.snapshot_resident_prefetched},
                scope=scope,
            )
        # gaps advance `instructions` by more than one, so the measured region
        # may over/undershoot the request by up to one gap at each boundary —
        # equality is not a law, but emptiness means the drive loop is broken
        if result.requested_instructions > 0 and result.instructions <= 0:
            self._fail(
                "measured-region-nonempty",
                "result: requested a measured region but none was recorded",
                {"instructions": result.instructions,
                 "requested_instructions": result.requested_instructions},
                scope=scope,
            )
        if result.l1d_demand_misses != engine.hierarchy.l1d.demand_stats.measured_misses:
            self._fail(
                "result-engine-mismatch",
                "result: l1d_demand_misses disagrees with the engine's counter",
                {"result": result.l1d_demand_misses,
                 "engine": engine.hierarchy.l1d.demand_stats.measured_misses},
                scope=scope,
            )
        expected_tlb_hits = (
            engine.stlb.measured_prefetch_hits + engine.dtlb.measured_prefetch_hits
        )
        if result.tlb_prefetch_hits != expected_tlb_hits:
            self._fail(
                "result-engine-mismatch",
                "result: tlb_prefetch_hits disagrees with the measured TLB counters",
                {"result": result.tlb_prefetch_hits, "engine": expected_tlb_hits},
                scope=scope,
            )
        counters = {
            name: getattr(result, name)
            for name in ("instructions", "prefetch_fills", "prefetch_useful",
                         "prefetch_useless", "prefetch_late", "pgc_candidates",
                         "pgc_issued", "pgc_discarded", "pgc_useful", "pgc_useless",
                         "demand_walks", "speculative_walks", "tlb_prefetch_hits",
                         "tlb_prefetch_evicted_unused", "dram_reads", "dram_writes",
                         "branches", "branch_mispredicts", "l1d_demand_misses")
        }
        negative = {name: value for name, value in counters.items() if value < 0}
        if negative:
            self._fail(
                "result-nonnegative",
                "result: negative event counters",
                negative,
                scope=scope,
            )
        if result.cycles <= 0 or result.ipc != result.instructions / result.cycles:
            self._fail(
                "result-ipc-consistency",
                "result: ipc != instructions / cycles",
                {"instructions": result.instructions, "cycles": result.cycles,
                 "ipc": result.ipc},
                scope=scope,
            )
