"""Multi-core (8-core) mix simulation (Section IV-A2).

Each core runs its own workload on private L1I/L1D/L2C/TLBs while sharing
the LLC and DRAM, so useless page-cross traffic from one core steals shared
bandwidth and LLC capacity from the others.  Cores are stepped in timestamp
order (a min-heap on each core's retire clock) so shared-resource contention
is time-coherent.

Methodology follows the paper: when a core finishes its instruction budget
its IPC is recorded and the core *replays its trace* until every core has
finished, keeping pressure on the shared resources.  Reported metric is the
weighted speedup: sum over cores of IPC_multicore / IPC_isolation, normalised
against the baseline configuration's weighted IPC.

Two drive loops produce bit-identical results:

* the **generator loop** (the reference implementation) pulls one record at
  a time from each core's live workload generator, exactly as the original
  implementation did;
* the **packed loop** (``SimConfig(packed=True)``) steps each core over
  the flat columns of its cached
  :class:`~repro.workloads.packed.PackedTrace` **through the fused record
  kernel** (:func:`repro.cpu.fastpath.core_stepper`, the body single-core
  packed runs use) — per-record pattern state machines and RNG draws are
  paid once per (workload, window) instead of once per mix × policy, and
  the dominant record case runs at single-core fused speed — and
  *batches* heap traffic: while the running core's ``(retire_t, index)``
  stays strictly below the heap's next entry, popping the heap would
  return the same core again, so it keeps stepping without touching the
  heap.  Each core's stepper is a generator coroutine, so its hoisted
  locals survive the switch and a scheduling round-trip costs one
  ``send``.  Replay restart is a fresh pass over the columns; a replay
  that outruns the pack (IPC imbalance, e.g. a halved-budget QMM core
  replaying while full-budget cores catch up) continues on a fresh
  generator advanced past the packed prefix, because that is precisely
  the stream the generator loop would be consuming
  (:func:`repro.cpu.fastpath_mix.core_pass`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cpu.simulator import (
    SimConfig,
    SimResult,
    build_engine,
    collect_result,
    count_drive,
    simulate,
)
from repro.mem.cache import Cache
from repro.mem.dram import Dram
from repro.obs.tracing import trace_span
from repro.workloads.synthetic import SyntheticWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import CoreEngine
    from repro.obs import Observability
    from repro.validate.invariants import InvariantChecker

_INF = float("inf")


def weighted_speedup(
    multicore_ipcs: Sequence[float],
    isolation_ipcs: Sequence[float],
    *,
    labels: Optional[Sequence[str]] = None,
) -> float:
    """Multi-core weighted speedup (Section IV-A2): sum of IPC_mc / IPC_iso.

    The single implementation behind both :meth:`MixResult.weighted_ipc`
    and :func:`repro.experiments.metrics.weighted_speedup` (which used to
    disagree on negative isolation IPCs).  Any non-positive isolation IPC is
    rejected — a ratio against zero is undefined, and a negative one would
    silently flip the metric's sign.  ``labels`` (e.g. workload names)
    enriches the error with the offending core's identity.
    """
    if len(isolation_ipcs) != len(multicore_ipcs):
        raise ValueError("isolation IPC count does not match core count")
    total = 0.0
    for i, (ipc, iso) in enumerate(zip(multicore_ipcs, isolation_ipcs)):
        if iso <= 0:
            label = f" ({labels[i]!r})" if labels is not None else ""
            raise ValueError(
                f"isolation IPC for core {i}{label} is not positive ({iso!r}); "
                "weighted speedup is undefined (did the isolation run "
                "retire anything?)"
            )
        total += ipc / iso
    return total


@dataclass
class MixResult:
    """Per-core results of one multi-core mix run."""

    results: list[SimResult]
    #: caller-assigned mix identity (rides into journal/metrics context)
    mix_id: Optional[int] = None

    @property
    def ipcs(self) -> list[float]:
        """Per-core measured IPCs, in workload order."""
        return [r.ipc for r in self.results]

    def weighted_ipc(self, isolation_ipcs: Sequence[float]) -> float:
        """Sum over cores of IPC_multicore / IPC_isolation."""
        return weighted_speedup(
            self.ipcs, isolation_ipcs,
            labels=[r.workload for r in self.results],
        )


def _drive_mix_generator(
    engines: list["CoreEngine"],
    workloads: Sequence[SyntheticWorkload],
    budgets: list[tuple[int, int]],
    core_configs: list[SimConfig],
    checkers: Optional[list["InvariantChecker"]] = None,
) -> list[Optional[SimResult]]:
    """Reference drive loop: one record at a time from live generators."""
    cores = len(engines)
    iterators = [iter(w.generate()) for w in workloads]
    measuring = [False] * cores
    finished: list[Optional[SimResult]] = [None] * cores
    remaining = cores
    # Min-heap on each core's retire clock: the core furthest behind in time
    # steps next, so shared-resource contention is time-coherent and finished
    # (replaying) cores are automatically paced — they only step when the
    # unfinished cores have caught up to them.
    heap = [(0.0, i) for i in range(cores)]
    heapq.heapify(heap)
    while remaining:
        _, i = heapq.heappop(heap)
        engine = engines[i]
        try:
            record = next(iterators[i])
        except StopIteration:  # finite trace shorter than its window
            iterators[i] = iter(workloads[i].generate())
            record = next(iterators[i])
        engine.step(*record)
        warm_limit, sim_limit = budgets[i]
        if not measuring[i] and engine.instructions >= warm_limit:
            engine.begin_measurement()
            measuring[i] = True
        # measured-region completion, not a raw warm+sim total: a gap that
        # overshoots the warm-up boundary must not shorten the measured region
        if finished[i] is None and measuring[i] and engine.measured_instructions >= sim_limit:
            finished[i] = collect_result(engine, workloads[i].name, core_configs[i])
            if checkers is not None:
                checkers[i].check_final(engine, finished[i])
            remaining -= 1
            # replay: the core keeps running to stress shared resources
            iterators[i] = iter(workloads[i].generate())
        if remaining:
            heapq.heappush(heap, (engine.retire_t, i))
    return finished


def _drive_mix_packed(
    engines: list["CoreEngine"],
    workloads: Sequence[SyntheticWorkload],
    budgets: list[tuple[int, int]],
    core_configs: list[SimConfig],
    checkers: Optional[list["InvariantChecker"]] = None,
) -> list[Optional[SimResult]]:
    """Packed drive loop: fused per-core steppers, batched heap stepping.

    Each core is a resumable :func:`repro.cpu.fastpath.core_stepper` — the
    fused record kernel parked in a generator coroutine, so each burst
    between heap switches runs at fused speed and switching cores costs one
    ``send``.  Bit-identical to :func:`_drive_mix_generator` by
    construction:

    * the fused record body is the single-core one, proven equal to
      ``engine.step`` record-for-record, and the stepper's event placement
      mirrors the generator loop's per-record warm-up/finish checks (a
      complete pack's last record is the record on which the core finishes,
      so its replay restart is a plain pass back over the columns);
    * batching is order-preserving: while ``(engine.retire_t, i)`` compares
      strictly below the heap's smallest entry, re-pushing and popping would
      return core ``i`` again, so stepping it without the round-trip replays
      the identical schedule (the retire clock never decreases, and the
      bound cannot move while no other core steps);
    * replay past a complete pack's end continues on an overflow generator
      advanced past the packed prefix, wrapping back to the pack's first
      record when that finite stream ends — mirroring the generator loop's
      ``StopIteration`` restart.  Incomplete packs (finite traces shorter
      than their window) hold the *entire* source stream, so for them a
      plain wrap is the restart, pre- and post-finish alike.
    """
    from repro.cpu.fastpath import core_stepper
    from repro.cpu.fastpath_mix import core_pass
    from repro.workloads.packed import get_packed

    cores = len(engines)
    passes = []
    steppers = []
    for i, (engine, workload, (warmup, sim)) in enumerate(
            zip(engines, workloads, budgets)):
        new_pass = partial(core_pass, get_packed(workload, warmup, sim), workload)
        stepper = core_stepper(engine, new_pass(), warmup, sim, i)
        next(stepper)  # run the hoists, park before the first record
        passes.append(new_pass)
        steppers.append(stepper)
    finished: list[Optional[SimResult]] = [None] * cores
    remaining = cores
    heap = [(0.0, i) for i in range(cores)]
    heapq.heapify(heap)
    try:
        while True:
            _, i = heapq.heappop(heap)
            # every other core sits in the heap, so its smallest entry bounds
            # how far core i may run before the schedule would switch cores
            bound = heap[0] if heap else (_INF, cores)
            stepper = steppers[i]
            event, t = stepper.send(bound)
            while event != "bound":
                if event == "finish":
                    finished[i] = collect_result(engines[i], workloads[i].name,
                                                 core_configs[i])
                    if checkers is not None:
                        checkers[i].check_final(engines[i], finished[i])
                    remaining -= 1
                    if not remaining:
                        return finished
                # a finished core replays and an exhausted one ("end") wraps:
                # both restart at record 0 under the same bound, and the
                # stepper reports "bound" itself if its last record crossed it
                event, t = stepper.send(passes[i]())
            heapq.heappush(heap, (t, i))
    finally:
        # leave every engine's timeline scalars flushed, exactly as a
        # generator-loop run leaves them
        for stepper in steppers:
            stepper.close()


def simulate_mix(
    workloads: Sequence[SyntheticWorkload],
    config: SimConfig,
    *,
    obs: Optional["Observability"] = None,
    mix_id: Optional[int] = None,
) -> MixResult:
    """Run one mix: len(workloads) cores sharing LLC + DRAM.

    Honours the same config knobs as :func:`~repro.cpu.simulator.simulate`:
    ``config.packed`` selects the packed mix loop — bit-identical, asserted
    by :func:`repro.validate.check_mix_packed_matches_generator` — and
    ``config.validate`` attaches one
    :class:`~repro.validate.InvariantChecker` per core (each core's result
    is checked at its own collect point, while the core goes on replaying).

    With an ``obs`` bundle, one journal record is written per core, tagged
    with the mix id and core index (``mix``/``core`` context keys; the
    per-core config also carries the core index as its ``asid``), and the
    mix's wall time is split evenly across the records so journal-derived
    throughput stays honest.  Timelines and probes are single-core
    instruments and are rejected.
    """
    cores = len(workloads)
    if obs is not None and (obs.timeline is not None or obs.probe is not None):
        raise ValueError(
            "timeline/probe instruments are single-core only; pass an "
            "Observability bundle with just a journal to simulate_mix"
        )
    params = config.params.scaled_llc(cores)
    dram = Dram(params.dram)
    llc = Cache(params.llc, writeback=dram.write)
    engines = []
    budgets = []
    core_configs = []
    for i, workload in enumerate(workloads):
        warmup, sim = config.warmup_instructions, config.sim_instructions
        if workload.suite.startswith("QMM"):
            warmup, sim = warmup // 2, sim // 2
        # the per-core config carries the (possibly halved) budgets so the
        # journaled requested_instructions matches what the core measures
        core_config = replace(config, params=params, asid=i,
                              warmup_instructions=warmup, sim_instructions=sim)
        engines.append(build_engine(core_config, shared_llc=llc, shared_dram=dram))
        budgets.append((warmup, sim))
        core_configs.append(core_config)
    checkers = None
    if config.validate:
        from repro.validate import InvariantChecker

        checkers = [InvariantChecker(obs=obs, workload=w.name) for w in workloads]
        for checker, engine in zip(checkers, engines):
            checker.attach(engine)
    mode = "mix-packed" if config.packed else "mix-generator"
    count_drive(mode)
    drive = _drive_mix_packed if config.packed else _drive_mix_generator
    wall_start = perf_counter()
    with trace_span("mix-drive", mix=mix_id, cores=cores, mode=mode):
        finished = drive(engines, workloads, budgets, core_configs, checkers)
    wall_seconds = perf_counter() - wall_start
    results = [r for r in finished if r is not None]
    if obs is not None:
        share = wall_seconds / cores if cores else 0.0
        for i, (workload, result) in enumerate(zip(workloads, results)):
            with obs.scoped(mix=mix_id, core=i):
                obs.finish(engines[i], workload, core_configs[i], result, share)
    return MixResult(results, mix_id=mix_id)


def isolation_ipc(
    workload: SyntheticWorkload,
    config: SimConfig,
    cores: int,
    *,
    obs: Optional["Observability"] = None,
) -> float:
    """IPC of `workload` alone on the multi-core configuration.

    Delegates to :func:`~repro.cpu.simulator.simulate`, so the config's
    ``packed``/``validate`` knobs are honoured the same way a
    single-core run honours them.
    """
    iso_config = replace(config, params=config.params.scaled_llc(cores))
    warmup, sim = config.warmup_instructions, config.sim_instructions
    if workload.suite.startswith("QMM"):
        iso_config = replace(iso_config, warmup_instructions=warmup // 2, sim_instructions=sim // 2)
    return simulate(workload, iso_config, obs=obs).ipc
