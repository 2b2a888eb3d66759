"""Parallel, cached execution of experiment-grid cells.

Every grid helper (``run_many``/``run_policies``/the sweeps) lowers its loop
nest to a flat list of :class:`Cell`\\ s — picklable (workload ×
:class:`RunSpec`) points — and hands them to :func:`run_cells`:

* ``jobs=1`` executes the cells in process, one workload at a time, and
  returns them in input order;
* ``jobs>1`` dispatches the cells to a :class:`ProcessPoolExecutor` and
  reassembles the results **in input order**, so callers cannot observe the
  scheduling;
* ``cache=`` (a :class:`~repro.experiments.cache.ResultCache`) makes cells
  content-addressed: a cell whose full config + workload seed was already
  simulated — earlier in the same batch, in a previous call, or in a
  previous process — is served from disk instead of re-simulated.

Scheduling is **workload-affine**: pending cells are grouped by workload
identity and pack window, and each worker receives whole per-workload chunks
— so it packs a workload once (through its own
:func:`~repro.workloads.packed.get_packed` LRU) and replays the pack across
all of that workload's (prefetcher × policy × params) cells, instead of
thrashing the pack cache by round-robining across workloads.  A batch with
few workloads is cut into smaller chunks so every worker has one: a
workload whose policies diverge re-drives them one after another on one
engine (DESIGN.md §17), which an idle worker beside it would not wait for.

Both paths run each workload's cells through :func:`execute_cells`, which
hands them to one :func:`~repro.cpu.simulator.simulate_policies` call: cells
that differ only in their page-cross policy share one engine until their
decisions diverge (DESIGN.md §17), and every result stays bit-identical to
running the cell alone, observed or not.

Chunks dispatch **costliest-first**: each chunk's wall-clock is estimated as
its cells' trace window (warm-up + measured instructions) × the relative
drive-loop weight of their page-cross policies (:func:`chunk_cost`), and the
pool drains the estimates in descending order.  On skewed grids — one
10×-longer workload window, or a handful of heavyweight DRIPPER/PPF cells
amid cheap discard ones — this keeps the long poles from landing last and
serialising the batch tail; on uniform grids it degrades to the old
largest-chunk-first order.

Pool cells run exactly the config the serial path builds from the cell's
``spec``; the parent packs nothing.  :func:`run_cells` and
:func:`run_mix_cells` share this pool path (:func:`_run_on_pool`); each only
plans its own chunks.

Every parallel batch builds its own pool unless it runs inside a
:func:`grid_session`, which keeps one alive across several batches —
``fig19_multicore`` wraps its isolation and mix batches in one, and a caller
running several sweeps can do the same, so the grid forks once instead of
once per batch.  Closing the batch (or the session) joins every worker: no
process the grid started outlives it.

Determinism: a simulation is a pure function of (workload identity + seed,
config) — trace generation, large-page allocation, and every replacement
decision are seeded — so parallel results are identical to serial ones, and
cache hits are identical to re-runs (floats survive JSON round-trips
exactly).

Telemetry under ``jobs>1`` comes home on one channel: the
:class:`_ChunkReport` each chunk returns.  Next to its results it carries
the chunk's metrics delta, its journal records (the worker journals into
memory — the parent's :class:`RunJournal` file handle is not fork-safe), its
``Observability.runs`` count and its drained trace spans.  A chunk that
raises returns its exception in the report, so the parent merges what the
chunk recorded before the failure (an ``invariant_violation`` record, its
``cell`` span) and only then raises.  Records land in completion order; every
record carries its own grid coordinates (``Cell.context``), never a shared
``Observability``'s — which is also what keeps the serial path's records
free of stale coordinates.  Timelines and profiling probes are in-process
instruments: a batch that needs a pool rejects them.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

from time import perf_counter

from repro.cpu.simulator import SimResult, simulate_policies
from repro.cpu.simulator import simulate  # noqa: F401 - perfbench's tracer patches it here
from repro.experiments.cache import CACHE_SCHEMA, ResultCache, fingerprint
from repro.experiments.runner import RunSpec
from repro.obs.journal import RunJournal, describe_config
from repro.obs.metrics import MetricsSnapshot, get_metrics, reset_metrics
from repro.obs.progress import GridProgress, ProgressSink
from repro.obs.tracing import Tracer, current_tracer, install_tracer, trace_span
from repro.workloads.packed import clear_pack_cache
from repro.workloads.registry import by_name
from repro.workloads.trace import identity_key, trace_window, workload_identity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.multicore import MixResult
    from repro.obs import Observability

#: callback fired as each cell's result lands: (cell index, result, cached?)
ResultHook = Callable[[int, SimResult, bool], None]

#: in-flight duplicate cells served off a primary cell's fresh entry
#: (the third leg of the result-cache story next to hits/misses)
_COALESCED = get_metrics().counter(
    "result_cache.coalesced", "in-flight duplicate cells coalesced onto a primary")


@dataclass(frozen=True)
class Cell:
    """One picklable grid cell: a workload identity and the spec it runs.

    ``workload`` is a registry name resolved via
    :func:`~repro.workloads.registry.by_name` in whichever process runs the
    cell; non-registry workloads (e.g. a :class:`FileWorkload`) ride along
    as ``workload_obj`` and must themselves be picklable to cross a process
    boundary.  ``spec`` is everything else the run depends on — policy,
    hardware parameters and epoch length included.
    """

    workload: str
    spec: RunSpec
    #: journal-context entries for this cell (sweep coordinates etc.);
    #: the run's `spec` is always recorded alongside
    context: Optional[dict[str, Any]] = None
    workload_obj: Optional[Any] = None

    @property
    def policy(self) -> str:
        """The page-cross policy this cell runs (``spec.policy``)."""
        return self.spec.policy

    def resolve_workload(self) -> Any:
        """The workload object this cell runs (registry lookup by default)."""
        if self.workload_obj is not None:
            return self.workload_obj
        return by_name(self.workload)


def cell_for(workload: Any, spec: RunSpec, *,
             context: Optional[dict[str, Any]] = None) -> Cell:
    """Build a Cell, carrying the workload by registry name when possible."""
    name = getattr(workload, "name", str(workload))
    try:
        registered = by_name(name) is workload
    except KeyError:
        registered = False
    return Cell(
        workload=name,
        spec=spec,
        context=context,
        workload_obj=None if registered else workload,
    )


def cell_fingerprint(cell: Cell, workload: Optional[Any] = None) -> Optional[str]:
    """Content hash of everything the cell's result depends on.

    Covers the workload's :func:`~repro.workloads.trace.workload_identity`,
    the declarative spec, and the fully materialised config dump — every
    hardware parameter included — so *any* config change invalidates the
    entry.  ``None`` for a workload without an identity: nothing names its
    trace, so its result cannot be cached.
    """
    if workload is None:
        workload = cell.resolve_workload()
    identity = workload_identity(workload)
    if identity is None:
        return None
    spec_dump = asdict(cell.spec)
    # validation is observational — a validated run returns the identical
    # result, so validated and unvalidated cells share cache entries; the
    # packed fast path is bit-identical by contract, so it shares them too
    spec_dump.pop("validate")
    spec_dump.pop("packed")
    # the config dump records the params in effect (None = DEFAULT_PARAMS)
    spec_dump.pop("params")
    return fingerprint({
        "schema": CACHE_SCHEMA,
        "workload": identity,
        "spec": spec_dump,
        "config": describe_config(cell.spec.config_for(workload), policy_name=cell.spec.policy),
    })


_GRID_METRICS = None


def _grid_metrics():
    """Cached (cells, instructions, wall-seconds, cell-seconds) instruments.

    Labelled by pid so merged grid snapshots still expose per-worker
    throughput; ``reset_metrics`` keeps instrument objects alive, so caching
    the references here is safe across a worker-side registry reset.
    """
    global _GRID_METRICS
    if _GRID_METRICS is None:
        reg = get_metrics()
        _GRID_METRICS = (
            reg.counter("grid.cells", "grid cells simulated, by executing pid"),
            reg.counter("grid.instructions",
                        "simulated (measured-region) instructions, by pid"),
            reg.counter("grid.wall_seconds", "wall seconds inside cells, by pid"),
            reg.histogram("grid.cell_seconds", "wall-seconds per grid cell"),
        )
    return _GRID_METRICS


def execute_cells(cells: Sequence[Cell], *,
                  obs: Optional["Observability"] = None) -> list[SimResult]:
    """Run cells in the current process; results come back in input order.

    Each workload's cells go to one
    :func:`~repro.cpu.simulator.simulate_policies` call, so cells that
    differ only in their page-cross policy share an engine until their
    decisions diverge (DESIGN.md §17), observed or not; each cell's journal
    record carries its ``spec`` and ``Cell.context``.
    """
    results: list[Optional[SimResult]] = [None] * len(cells)
    for indices, _warmup, _sim in _cell_groups(cells, range(len(cells))):
        group = [cells[i] for i in indices]
        workload = group[0].resolve_workload()
        configs = [cell.spec.config_for(workload) for cell in group]
        contexts = None if obs is None else [
            {"spec": asdict(cell.spec), **(cell.context or {})} for cell in group]
        start = perf_counter()
        with trace_span("cell", category="grid", workload=group[0].workload,
                        policy=",".join(cell.policy for cell in group)):
            landed = simulate_policies(workload, configs, obs=obs, contexts=contexts)
        _account_cells(landed, perf_counter() - start)
        for i, result in zip(indices, landed):
            results[i] = result
    return results  # type: ignore[return-value]


def _cell_groups(cells: Sequence[Cell],
                 indices: Iterable[int]) -> list[tuple[list[int], int, int]]:
    """Cell indices grouped by (workload identity, trace window), first-seen order.

    Returns ``(indices, warmup, sim)`` per group.  The identity is
    :func:`~repro.workloads.trace.identity_key` (the object's id for a
    workload without one, which the cells keep alive meanwhile); the window
    is each cell's :func:`~repro.workloads.trace.trace_window` (so QMM
    half-length windows are respected), exactly the window ``get_packed``
    packs for the group.
    """
    groups: dict[tuple, tuple[list[int], int, int]] = {}
    for i in indices:
        cell = cells[i]
        workload = cell.resolve_workload()
        window = trace_window(workload, cell.spec.warmup_instructions,
                              cell.spec.sim_instructions)
        key = (identity_key(workload) or id(workload), *window)
        groups.setdefault(key, ([], *window))[0].append(i)
    return list(groups.values())


def _account_cells(results: Sequence["SimResult | MixResult"], wall: float) -> None:
    """Grid metrics for cells that ran together in ``wall`` seconds (split evenly)."""
    cells, instructions, wall_seconds, cell_seconds = _grid_metrics()
    pid = str(os.getpid())
    share = wall / len(results)
    for result in results:
        cells.inc(pid=pid)
        instructions.inc(result.instructions, pid=pid)
        wall_seconds.inc(share, pid=pid)
        cell_seconds.observe(share)


# ---------------------------------------------------------------------------
# worker side (module-level so both fork and spawn start methods can pickle it)

def _init_worker(trace: bool = False) -> None:
    # a forked worker inherits the parent's pack-cache buffers but would
    # repack on first miss anyway (nothing keeps the inherited entries warm
    # across COW); drop them so worker RSS doesn't double
    clear_pack_cache()
    # it also inherits the parent's metric *values* (warm-up packs, earlier
    # batches) — reset them so the per-chunk deltas this worker ships back
    # count only its own work, never the parent's
    reset_metrics()
    # ...and the parent's tracer, whose buffered spans and pid are not this
    # process's; install a fresh worker tracer (or none) in its place
    install_tracer(Tracer(role="worker") if trace else None)


class _MemoryJournal(RunJournal):
    """A chunk's journal: keeps each record for the chunk's report."""

    def __init__(self) -> None:
        super().__init__(os.devnull)
        self.records: list[dict[str, Any]] = []

    def append_record(self, record: dict[str, Any]) -> None:
        self.records.append(record)
        self.records_written += 1


class _WorkerTraceback(Exception):
    """A worker chunk's formatted traceback, chained to the error it raised."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


@dataclass
class _ChunkReport:
    """Everything one worker chunk sends home (see the module docstring)."""

    results: list[tuple[int, Any]]
    metrics: MetricsSnapshot
    records: list[dict[str, Any]]
    runs: int
    #: the worker tracer's drained events, pid and role (empty untraced)
    spans: list[dict[str, Any]]
    pid: int
    role: str
    #: the exception the chunk raised, re-raised by the parent after merging,
    #: and the worker-side traceback it is chained to
    error: Optional[Exception] = None
    error_trace: str = ""


def _run_chunk_worker(
    execute: Callable[..., list],
    items: Sequence[tuple[int, Any]],
    use_journal: bool,
    trace: bool = False,
) -> _ChunkReport:
    """Run one chunk of cells in this worker process through ``execute``.

    ``execute`` is :func:`execute_cells` or :func:`execute_mix_cells`.
    The report's metrics are a *delta* — everything this worker's registry
    accumulated during the chunk, relative to a snapshot taken at entry —
    so the parent can merge reports in completion order.  The tracer is
    drained even when the chunk raises, so a failed chunk's spans never
    ride along with this worker's next chunk.
    """
    if trace and current_tracer() is None:
        # tracing was enabled after this pool forked (persistent session)
        install_tracer(Tracer(role="worker"))
    from repro.obs import Observability

    registry = get_metrics()
    mark = registry.snapshot()
    obs = Observability(journal=_MemoryJournal()) if use_journal else None
    results: list[tuple[int, Any]] = []
    error: Optional[Exception] = None
    trace_text = ""
    try:
        landed = execute([cell for _, cell in items], obs=obs)
        results = [(i, result) for (i, _), result in zip(items, landed)]
    except Exception as exc:
        error, trace_text = exc, traceback.format_exc()
    finally:
        tracer = current_tracer()
        spans = tracer.drain() if tracer is not None else []
    return _ChunkReport(
        results=results,
        metrics=registry.snapshot().delta(mark),
        records=obs.journal.records if obs is not None else [],
        runs=obs.runs if obs is not None else 0,
        spans=spans,
        pid=os.getpid(),
        role=tracer.role if tracer is not None else "worker",
        error=error,
        error_trace=trace_text,
    )


# ---------------------------------------------------------------------------
# parent side: grid sessions (persistent pool)


class _GridSession:
    """One worker pool, reusable across batches."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def pool(self) -> ProcessPoolExecutor:
        """The (lazily forked) worker pool."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(current_tracer() is not None,),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down (joining every worker)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


_SESSION: Optional[_GridSession] = None


@contextmanager
def grid_session(jobs: int = 1) -> Iterator[Optional[_GridSession]]:
    """Reuse one pool across every parallel batch inside.

    A grid of several ``run_cells``/``run_mix_cells`` batches (Fig. 19's
    isolation and mix batches, several sweeps) forks its workers once, and
    each worker keeps its packs warm across batches.  Nesting is a no-op
    (the outermost session wins), as is ``jobs<=1``.
    """
    global _SESSION
    if _SESSION is not None or jobs <= 1:
        yield _SESSION
        return
    session = _GridSession(jobs)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None
        session.close()


#: relative drive-loop cost per page-cross policy, against the discard
#: baseline — adaptive policies run filter lookups and epoch threshold
#: feedback on top of the shared memory-system work, PPF evaluates a
#: perceptron per page-cross candidate.  Coarse by design: scheduling only
#: needs the *ordering* of chunk estimates, not their absolute scale, so
#: unknown names defaulting to 1.0 is safe.
_POLICY_COST = {
    "discard": 1.0, "discard-pgc": 1.0, "discard-ptw": 1.0,
    "permit": 1.1, "permit-pgc": 1.1, "iso": 1.1, "iso-storage": 1.1,
    "dripper": 1.3, "dripper-sf": 1.4,
    "ppf": 1.6, "ppf+dthr": 1.6, "ppf-dthr": 1.6,
}


def policy_cost_weight(name: str) -> float:
    """Relative drive-loop weight of one page-cross policy (1.0 = discard)."""
    return _POLICY_COST.get(name.lower(), 1.0)


def chunk_cost(cells: Sequence[Any], indices: Sequence[int],
               records: int) -> float:
    """Estimated wall-clock weight of one workload-affine chunk.

    ``records`` is the chunk's trace window, warm-up + measured
    instructions (every cell replays the whole window, so per-cell work is
    proportional to it, and records ≈ instructions for gap-light traces);
    each cell contributes ``records × policy_cost_weight(policy)``.  Used to
    dispatch chunks costliest-first — see the module docstring.
    """
    return float(records) * sum(
        policy_cost_weight(cells[i].policy)
        for i in indices)


#: one planned chunk: (cell indices, estimated cost)
_Chunk = tuple[list[int], float]


def _run_on_pool(
    cells: Sequence[Any],
    workers: int,
    chunks: Sequence[_Chunk],
    execute: Callable[..., list],
    finish: Callable[[int, Any], None],
    obs: Optional["Observability"],
    prog: Optional[GridProgress],
) -> None:
    """Run a batch's chunks on the grid session's worker pool.

    ``chunks`` dispatch costliest-first to :func:`_run_chunk_worker`, which
    runs each through ``execute``.  As each chunk lands, its report's metrics
    delta, journal records, run count and spans are merged into the parent's
    registry, journal, ``obs.runs`` and tracer; then its exception (if any)
    is raised, after cancelling every chunk not yet started, or
    ``finish(i, result)`` lands each result.  Without an
    enclosing :func:`grid_session` the batch builds (and closes) its own
    session of ``workers`` processes.
    """
    if obs is not None and (obs.timeline is not None or obs.probe is not None):
        raise ValueError(
            "timeline/probe instruments are in-process only; run with jobs=1 "
            "or pass an Observability bundle with just a journal"
        )
    journal = obs.journal if obs is not None else None
    tracer = current_tracer()
    session = _SESSION
    ephemeral = session is None
    if ephemeral:
        session = _GridSession(workers)
    futures: dict = {}
    try:
        pool = session.pool()
        futures = {
            pool.submit(
                _run_chunk_worker, execute, [(i, cells[i]) for i in piece],
                journal is not None, tracer is not None,
            ): piece
            for piece, _cost in sorted(chunks, key=lambda c: -c[1])  # costliest first
        }
        registry = get_metrics()
        for future in as_completed(futures):
            try:
                report = future.result()
            except BaseException as exc:
                if prog is not None:
                    prog.cell_failed(futures[future], exc)
                raise
            # deltas are commutative/associative, so completion order —
            # which varies run to run — cannot change the merged totals
            registry.merge(report.metrics)
            if journal is not None:
                for record in report.records:
                    journal.append_record(record)
                obs.runs += report.runs
            if tracer is not None:
                tracer.absorb(report.spans, pid=report.pid, role=report.role)
            if report.error is not None:
                if prog is not None:
                    prog.cell_failed(futures[future], report.error)
                raise report.error from _WorkerTraceback(report.error_trace)
            for i, result in report.results:
                finish(i, result)
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    finally:
        if ephemeral:
            session.close()


def run_cells(
    cells: Sequence[Cell],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    obs: Optional["Observability"] = None,
    on_result: Optional[ResultHook] = None,
    progress: Optional[ProgressSink] = None,
) -> list[SimResult]:
    """Execute a batch of cells; results come back in input order.

    With a cache, cells are first looked up by fingerprint and identical
    in-flight cells are coalesced: the first occurrence simulates, the rest
    are served from the freshly written entry (they count as cache hits).
    A cell whose workload has no identity (no fingerprint) simulates
    without touching the cache.
    Only simulated cells are journaled — the journal stays a log of actual
    simulations, while cache stats account for the saved ones.

    ``progress`` (see :mod:`repro.obs.progress`) receives one structured
    event per grid milestone: batch start, each landed cell (with ETA and
    aggregate throughput), failed chunks, and batch end.
    """
    cells = list(cells)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results: list[Optional[SimResult]] = [None] * len(cells)
    keys: list[Optional[str]] = [None] * len(cells)
    duplicates: dict[int, list[int]] = {}
    pending: list[int] = []

    if cache is not None:
        primary: dict[str, int] = {}
        for i, cell in enumerate(cells):
            key = cell_fingerprint(cell)
            keys[i] = key
            if key is None:  # no workload identity: simulate, uncached
                pending.append(i)
                continue
            if key in primary:  # identical in-flight cell: coalesce
                duplicates.setdefault(primary[key], []).append(i)
                continue
            cached = cache.get(key)
            if cached is not None:
                results[i] = cached
                if on_result is not None:
                    on_result(i, cached, True)
            else:
                primary[key] = i
                pending.append(i)
    else:
        pending = list(range(len(cells)))

    prog = GridProgress(progress) if progress is not None else None
    if prog is not None:
        prog.start(len(cells), sum(1 for r in results if r is not None))

    def finish(i: int, result: SimResult) -> None:
        results[i] = result
        if keys[i] is not None:
            cache.put(keys[i], result, meta={"workload": cells[i].workload})
        if on_result is not None:
            on_result(i, result, False)
        if prog is not None:
            prog.cell_finish(i, cells[i].workload, cells[i].policy,
                             cached=False, instructions=result.instructions)
        for dup in duplicates.get(i, ()):
            dup_result = cache.get(keys[dup]) if cache is not None else None
            results[dup] = dup_result if dup_result is not None else result
            _COALESCED.inc()
            if on_result is not None:
                on_result(dup, results[dup], True)
            if prog is not None:
                prog.cell_finish(dup, cells[dup].workload, cells[dup].policy,
                                 cached=True,
                                 instructions=results[dup].instructions)

    workers = min(jobs, len(pending))
    if workers <= 1:
        for group, _warmup, _sim in _cell_groups(cells, pending):
            if prog is not None:
                for i in group:
                    prog.cell_start(i, cells[i].workload, cells[i].policy)
            for i, result in zip(group, execute_cells([cells[i] for i in group], obs=obs)):
                finish(i, result)
    else:
        # split each workload's run into chunks small enough to load-
        # balance, but never split a chunk across workloads
        chunk_size = max(1, -(-len(pending) // (workers * 2)))
        chunks: list[_Chunk] = []
        for indices, warmup, sim in _cell_groups(cells, pending):
            for at in range(0, len(indices), chunk_size):
                piece = indices[at:at + chunk_size]
                chunks.append((piece, chunk_cost(cells, piece, warmup + sim)))
        _run_on_pool(cells, workers, chunks, execute_cells, finish, obs, prog)

    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - defensive; every path above fills results
        raise RuntimeError(f"cells {missing} produced no result")
    if prog is not None:
        prog.end()
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# multi-core mixes: one mix = one affine chunk

@dataclass(frozen=True)
class MixCell:
    """One picklable multi-core grid cell: a workload mix and the spec it runs.

    ``workloads`` are registry names (mixes come from
    :func:`~repro.workloads.make_mixes`, which draws from the registry), so
    a mix cell crosses process boundaries by name alone.
    """

    workloads: tuple[str, ...]
    spec: RunSpec
    mix_id: Optional[int] = None

    @property
    def policy(self) -> str:
        """The page-cross policy this mix runs (``spec.policy``)."""
        return self.spec.policy

    def resolve_workloads(self) -> list[Any]:
        """The workload objects this mix runs, in core order."""
        return [by_name(name) for name in self.workloads]

    def label(self) -> str:
        """Display label for progress lines (``mix-<id>``)."""
        return f"mix-{self.mix_id}" if self.mix_id is not None else "mix"


def mix_cell_for(mix: Sequence[Any], spec: RunSpec, *,
                 mix_id: Optional[int] = None) -> MixCell:
    """Build a MixCell from workload objects (carried by registry name)."""
    return MixCell(
        workloads=tuple(getattr(w, "name", str(w)) for w in mix),
        spec=spec,
        mix_id=mix_id,
    )


def execute_mix_cell(cell: MixCell, *,
                     obs: Optional["Observability"] = None) -> "MixResult":
    """Run one mix cell in the current process."""
    from repro.cpu.multicore import simulate_mix

    workloads = cell.resolve_workloads()
    # nominal windows: per-core QMM halving is simulate_mix's job
    config = cell.spec.base_config()
    start = perf_counter()
    with trace_span("mix-cell", category="grid",
                    mix=cell.mix_id, policy=cell.policy, cores=len(workloads)):
        with obs.scoped(spec=asdict(cell.spec)) if obs is not None else nullcontext():
            result = simulate_mix(workloads, config, obs=obs, mix_id=cell.mix_id)
    _account_cells([result], perf_counter() - start)
    return result


def execute_mix_cells(cells: Sequence[MixCell], *,
                      obs: Optional["Observability"] = None) -> list["MixResult"]:
    """Run mix cells in the current process, one after another."""
    return [execute_mix_cell(cell, obs=obs) for cell in cells]


#: callback fired as each mix's result lands: (cell index, result, cached?)
MixResultHook = Callable[[int, "MixResult", bool], None]


def run_mix_cells(
    cells: Sequence[MixCell],
    *,
    jobs: int = 1,
    obs: Optional["Observability"] = None,
    on_result: Optional[MixResultHook] = None,
    progress: Optional[ProgressSink] = None,
) -> list["MixResult"]:
    """Execute a batch of mix cells; results come back in input order.

    Scheduling is mix-affine: **one mix = one chunk**, so a worker steps all
    eight cores of a mix against their shared LLC+DRAM without interleaving
    other work, packing each core's workload (at its QMM-halved window where
    applicable) through its own pack cache — mixes overlap heavily in
    workloads, so a worker's later mixes reuse the packs its earlier ones
    paid for.  There is no result cache at the mix level — the cacheable
    unit is the *isolation* run, which is an ordinary :class:`Cell`.
    """
    cells = list(cells)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results: list[Optional["MixResult"]] = [None] * len(cells)
    prog = GridProgress(progress) if progress is not None else None
    if prog is not None:
        prog.start(len(cells), 0)

    def finish(i: int, result: "MixResult") -> None:
        results[i] = result
        if on_result is not None:
            on_result(i, result, False)
        if prog is not None:
            prog.cell_finish(i, cells[i].label(), cells[i].policy, cached=False,
                             instructions=result.instructions)

    workers = min(jobs, len(cells))
    if workers <= 1:
        for i in range(len(cells)):
            if prog is not None:
                prog.cell_start(i, cells[i].label(), cells[i].policy)
            finish(i, execute_mix_cell(cells[i], obs=obs))
    else:
        # a mix's wall-clock tracks its total per-core window mass
        chunks: list[_Chunk] = [
            ([i], chunk_cost(cells, [i], sum(
                sum(trace_window(workload, cell.spec.warmup_instructions,
                                 cell.spec.sim_instructions))
                for workload in cell.resolve_workloads())))
            for i, cell in enumerate(cells)
        ]
        _run_on_pool(cells, workers, chunks, execute_mix_cells, finish, obs, prog)

    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - defensive; every path above fills results
        raise RuntimeError(f"mix cells {missing} produced no result")
    if prog is not None:
        prog.end()
    return results  # type: ignore[return-value]
