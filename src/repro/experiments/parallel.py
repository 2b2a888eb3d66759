"""Parallel, cached execution of experiment-grid cells.

Every grid helper (``run_many``/``run_policies``/the sweeps) lowers its loop
nest to a flat list of :class:`Cell`\\ s — picklable descriptions of one
(workload × spec × overrides) point — and hands them to :func:`run_cells`:

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
— so it materialises (or shm-attaches) a workload's pack once and replays it
across all of that workload's (prefetcher × policy × params) cells, instead
of thrashing the pack cache by round-robining across workloads.

Both paths run each workload's cells through :func:`execute_cells`, which
hands them to one :func:`~repro.cpu.simulator.simulate_policies` call: cells
that differ only in their page-cross policy share one engine until their
decisions diverge (DESIGN.md §17), and every result stays bit-identical to
running the cell alone.

Chunks dispatch **costliest-first**: each chunk's wall-clock is estimated as
pack record count × the relative drive-loop weight of its cells' page-cross
policies (:func:`chunk_cost`), and the pool drains the estimates in
descending order.  On skewed grids — one 10×-longer workload window, or a
handful of heavyweight DRIPPER/PPF cells amid cheap discard ones — this
keeps the long poles from landing last and serialising the batch tail; on
uniform grids it degrades to the old largest-chunk-first order.

Under ``jobs>1`` the parent packs each workload of the grid exactly once
and publishes the columns through a
:class:`~repro.workloads.shm.SharedPackStore`; chunks carry their workload's
:class:`~repro.workloads.shm.PackHandle` and the workers replay zero-copy
views instead of repacking per process.  Cells whose workload cannot be
published (no cross-process identity, empty pack) fall back to
worker-local packing — the store is a pure transport optimisation on top of
the bit-identical packed fast path.  :func:`run_cells` and
:func:`run_mix_cells` share this pool path (:func:`_run_on_pool`); each
only plans its own chunks.

Every parallel batch builds its own pool and store unless it runs inside a
:func:`grid_session`, which keeps one of each alive across several batches
— ``fig19_multicore`` wraps its isolation and mix batches in one, and a
caller running several sweeps can do the same, so the grid forks once
instead of once per batch.

Determinism: a simulation is a pure function of (workload identity + seed,
config) — trace generation, large-page allocation, and every replacement
decision are seeded — so parallel results are identical to serial ones, and
cache hits are identical to re-runs (floats survive JSON round-trips
exactly).

Journaling under ``jobs>1``: the parent's :class:`RunJournal` holds a shared
file handle that is not fork-safe, so each worker chunk appends to its own
JSONL shard (``shard-<pid>-<seq>.jsonl``, closed before the chunk returns)
and the parent merges-and-consumes the shards into its journal once the
batch drains — consuming is what keeps a persistent session's shard
directory from double-counting earlier batches.  Per-cell grid coordinates
travel *in the cell* (``Cell.context``), never by mutating a shared
``Observability`` — which is also what keeps the serial path's records free
of stale coordinates.  Timelines and profiling probes are in-process
instruments and remain ``jobs=1`` only.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

from time import perf_counter

from repro.cpu.simulator import SimConfig, SimResult, simulate, simulate_policies
from repro.experiments.cache import CACHE_SCHEMA, ResultCache, fingerprint
from repro.experiments.runner import RunSpec, policy_factory
from repro.obs.journal import describe_config, describe_workload
from repro.obs.metrics import MetricsSnapshot, get_metrics, reset_metrics
from repro.obs.progress import GridProgress, ProgressSink
from repro.obs.tracing import Tracer, current_tracer, install_tracer, trace_span
from repro.params import SystemParams
from repro.workloads.packed import clear_pack_cache
from repro.workloads.registry import by_name
from repro.workloads.shm import PackHandle, SharedPackStore, install_attachments
from repro.workloads.trace import trace_window

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
    """One picklable grid cell: workload identity + spec + overrides.

    ``workload`` is a registry name resolved via
    :func:`~repro.workloads.registry.by_name` in whichever process runs the
    cell; non-registry workloads (e.g. a :class:`FileWorkload`) ride along
    as ``workload_obj`` and must themselves be picklable to cross a process
    boundary.  ``policy`` overrides only the policy *factory* (mirroring the
    sweeps' ``replace(config, policy_factory=...)``), leaving every other
    spec-derived knob — e.g. ISO's extra prefetcher storage — untouched.
    """

    workload: str
    spec: RunSpec
    policy: Optional[str] = None
    params: Optional[SystemParams] = None
    epoch_instructions: Optional[int] = None
    #: journal-context entries for this cell (sweep coordinates etc.);
    #: the run's `spec` is always recorded alongside
    context: Optional[dict[str, Any]] = None
    workload_obj: Optional[Any] = None

    def resolve_workload(self) -> Any:
        """The workload object this cell runs (registry lookup by default)."""
        if self.workload_obj is not None:
            return self.workload_obj
        return by_name(self.workload)


def cell_for(workload: Any, spec: RunSpec, **overrides: Any) -> Cell:
    """Build a Cell, carrying the workload by registry name when possible."""
    name = getattr(workload, "name", str(workload))
    try:
        registered = by_name(name) is workload
    except KeyError:
        registered = False
    return Cell(
        workload=name,
        spec=spec,
        workload_obj=None if registered else workload,
        **overrides,
    )


def build_config(cell: Cell, workload: Any) -> SimConfig:
    """Materialise the cell's SimConfig exactly as the serial helpers do."""
    config = cell.spec.config_for(workload)
    overrides: dict[str, Any] = {}
    if cell.params is not None:
        overrides["params"] = cell.params
    if cell.policy is not None:
        overrides["policy_factory"] = policy_factory(cell.policy, cell.spec.prefetcher)
    if cell.epoch_instructions is not None:
        overrides["epoch_instructions"] = cell.epoch_instructions
    return replace(config, **overrides) if overrides else config


def cell_fingerprint(cell: Cell, workload: Optional[Any] = None) -> str:
    """Content hash of everything the cell's result depends on.

    Covers the workload identity (name, suite, seed, generator knobs), the
    declarative spec, and the fully materialised config dump — every
    hardware parameter included — so *any* config change invalidates the
    entry.
    """
    if workload is None:
        workload = cell.resolve_workload()
    config = build_config(cell, workload)
    spec_dump = asdict(cell.spec)
    # validation is observational — a validated run returns the identical
    # result, so validated and unvalidated cells share cache entries; the
    # packed fast path is bit-identical by contract, so it shares them too
    spec_dump.pop("validate", None)
    spec_dump.pop("packed", None)
    # sampling, by contrast, changes the result (a reconstruction, not a
    # bit-identical rerun) and so must stay in the fingerprint when set;
    # popped when None so pre-sampling cache entries remain addressable
    if spec_dump.get("sampling") is None:
        spec_dump.pop("sampling", None)
    identity = describe_workload(workload)
    for knob in ("store_fraction", "code_lines", "mispredict_rate",
                 "branch_profile", "pcs_per_pattern", "path"):
        value = getattr(workload, knob, None)
        if value is not None:
            identity[knob] = value
    return fingerprint({
        "schema": CACHE_SCHEMA,
        "workload": identity,
        "spec": spec_dump,
        "policy": cell.policy,
        "config": describe_config(config, policy_name=cell.policy or cell.spec.policy),
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


def execute_cell(cell: Cell, *, obs: Optional["Observability"] = None,
                 force_packed: bool = False) -> SimResult:
    """Run one cell in the current process, alone on its engine.

    ``force_packed`` routes the run through the packed fast path regardless
    of the spec (bit-identical by contract) — set for cells whose chunk
    shipped an shm pack handle, so the worker replays the attached view.
    """
    workload = cell.resolve_workload()
    config = _cell_config(cell, workload, force_packed)
    start = perf_counter()
    with trace_span("cell", category="grid",
                    workload=cell.workload, policy=_policy_of(cell)):
        if obs is not None:
            with obs.scoped(spec=asdict(cell.spec), **(cell.context or {})):
                result = simulate(workload, config, obs=obs)
        else:
            result = simulate(workload, config, obs=obs)
    _account_cells([result], perf_counter() - start)
    return result


def execute_cells(cells: Sequence[Cell], *, obs: Optional["Observability"] = None,
                  force_packed: bool = False) -> list[SimResult]:
    """Run cells in the current process; results come back in input order.

    Each workload's cells go to one
    :func:`~repro.cpu.simulator.simulate_policies` call, so cells that
    differ only in their page-cross policy share an engine until their
    decisions diverge (DESIGN.md §17).  With an ``obs`` bundle every cell
    runs alone through :func:`execute_cell`: journals, timelines and probes
    describe one engine per cell.
    """
    if obs is not None:
        return [execute_cell(cell, obs=obs, force_packed=force_packed) for cell in cells]
    results: list[Optional[SimResult]] = [None] * len(cells)
    for indices in _workload_groups(cells, range(len(cells))):
        group = [cells[i] for i in indices]
        workload = group[0].resolve_workload()
        configs = [_cell_config(cell, workload, force_packed) for cell in group]
        start = perf_counter()
        with trace_span("cell", category="grid", workload=group[0].workload,
                        policy=",".join(_policy_of(cell) for cell in group)):
            landed = simulate_policies(workload, configs)
        _account_cells(landed, perf_counter() - start)
        for i, result in zip(indices, landed):
            results[i] = result
    return results  # type: ignore[return-value]


def _policy_of(cell: "Cell | MixCell") -> str:
    return cell.policy or cell.spec.policy


def _cell_config(cell: Cell, workload: Any, force_packed: bool) -> SimConfig:
    config = build_config(cell, workload)
    if force_packed and not config.packed:
        config.packed = True
    return config


def _workload_groups(cells: Sequence[Cell], indices: Iterable[int]) -> list[list[int]]:
    """Cell indices grouped by workload identity, in first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for i in indices:
        cell = cells[i]
        key = (cell.workload,
               id(cell.workload_obj) if cell.workload_obj is not None else None)
        groups.setdefault(key, []).append(i)
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

_WORKER_SHARD_DIR: Optional[str] = None
_WORKER_SEQ = 0


def _init_worker(shard_dir: Optional[str], handles: Sequence[PackHandle] = (),
                 trace: bool = False) -> None:
    global _WORKER_SHARD_DIR, _WORKER_SEQ
    _WORKER_SHARD_DIR = shard_dir
    _WORKER_SEQ = 0
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
    if handles:
        install_attachments(handles)


def _chunk_obs() -> Optional["Observability"]:
    """A fresh journal shard for one chunk (closed before the chunk returns).

    Per-chunk (not per-process) shards let a persistent session merge *and
    delete* shards after every batch: a long-lived per-process file would
    still be held open by the worker when the parent consumed it.
    """
    global _WORKER_SEQ
    if _WORKER_SHARD_DIR is None:
        return None
    from repro.obs import Observability, RunJournal

    _WORKER_SEQ += 1
    shard = Path(_WORKER_SHARD_DIR) / f"shard-{os.getpid():08d}-{_WORKER_SEQ:06d}.jsonl"
    return Observability(journal=RunJournal(shard))


def _run_chunk_worker(
    execute: Callable[..., list],
    items: Sequence[tuple[int, Any]],
    handles: Sequence[PackHandle],
    use_journal: bool,
    force_packed: bool,
    trace_dir: Optional[str] = None,
) -> tuple[list[tuple[int, Any]], MetricsSnapshot]:
    """Run one chunk of cells in this worker process through ``execute``.

    ``execute`` is :func:`execute_cells` or :func:`execute_mix_cells`.
    Returns the chunk's results plus a metrics *delta* — everything this
    worker's registry accumulated during the chunk, relative to a snapshot
    taken at entry.  Deltas are commutative, so the parent can merge them in
    completion order.  With ``trace_dir`` set, buffered spans are flushed to
    a per-chunk shard there (the parent absorbs them after the batch).
    """
    if handles:
        # the chunk's pack may have been published after this pool started,
        # so handles ride with the chunk (registering twice is a no-op)
        install_attachments(handles)
    if trace_dir is not None and current_tracer() is None:
        # tracing was enabled after this pool forked (persistent session)
        install_tracer(Tracer(role="worker"))
    registry = get_metrics()
    mark = registry.snapshot()
    obs = _chunk_obs() if use_journal else None
    try:
        results = execute([cell for _, cell in items], obs=obs,
                          force_packed=force_packed)
        out = [(i, result) for (i, _), result in zip(items, results)]
    finally:
        if obs is not None:
            obs.close()
    delta = registry.snapshot().delta(mark)
    if trace_dir is not None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.flush_shard(trace_dir)
    return out, delta


# ---------------------------------------------------------------------------
# parent side: grid sessions (persistent pool + shared pack store)


class _GridSession:
    """One worker pool + pack store + shard dir, reusable across batches."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.store = SharedPackStore()
        self.shard_dir = tempfile.mkdtemp(prefix="repro-shards-")
        # trace shards live in a subdirectory so the journal's shard merge
        # (non-recursive glob over shard_dir) never sees them
        self.trace_dir = os.path.join(self.shard_dir, "trace")
        os.makedirs(self.trace_dir, exist_ok=True)
        self._pool: Optional[ProcessPoolExecutor] = None

    def pool(self) -> ProcessPoolExecutor:
        """The (lazily forked) worker pool; initial handles ride along."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.shard_dir, tuple(self.store.handles()),
                          current_tracer() is not None),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down, unlink every shm segment, drop the shard dir."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.store.close()
        shutil.rmtree(self.shard_dir, ignore_errors=True)


_SESSION: Optional[_GridSession] = None


@contextmanager
def grid_session(jobs: int = 1) -> Iterator[Optional[_GridSession]]:
    """Reuse one pool/pack store across every parallel batch inside.

    A grid of several ``run_cells``/``run_mix_cells`` batches (Fig. 19's
    isolation and mix batches, several sweeps) forks its workers once and
    publishes each workload's pack once.  Nesting is a no-op (the outermost
    session wins), as is ``jobs<=1``.
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


def _affine_groups(
    cells: Sequence[Cell], pending: Sequence[int]
) -> list[tuple[list[int], Any, int, int]]:
    """Group pending cell indices by (workload identity, pack window).

    Returns ``(indices, workload, warmup, sim)`` per group, in first-seen
    order.  The window comes from each cell's *built* config (so per-suite
    adjustments like QMM half-length windows are respected), which is also
    exactly the window ``get_packed`` will be called with inside the run.
    """
    groups: dict[tuple, tuple[list[int], Any, int, int]] = {}
    order: list[tuple] = []
    for i in pending:
        cell = cells[i]
        workload = cell.resolve_workload()
        config = build_config(cell, workload)
        key = (
            cell.workload,
            id(cell.workload_obj) if cell.workload_obj is not None else None,
            config.warmup_instructions,
            config.sim_instructions,
        )
        group = groups.get(key)
        if group is None:
            groups[key] = group = ([], workload, config.warmup_instructions,
                                   config.sim_instructions)
            order.append(key)
        group[0].append(i)
    return [groups[key] for key in order]


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

    ``records`` is the chunk's pack length (every cell replays the whole
    pack, so per-cell work is proportional to it); each cell contributes
    ``records × policy_cost_weight(policy)``.  Used to dispatch chunks
    costliest-first — see the module docstring.
    """
    return float(records) * sum(
        policy_cost_weight(cells[i].policy or cells[i].spec.policy)
        for i in indices)


def _publish(store: SharedPackStore, workload: Any, warmup: int,
             sim: int) -> tuple[tuple[PackHandle, ...], int]:
    """Publish one workload's pack; returns its handles and record count.

    Unpublishable packs yield no handle, and their window stands in for the
    record count (records ≈ instructions for gap-light traces).
    """
    handle = store.publish(workload, warmup, sim)
    if handle is None:
        return (), warmup + sim
    return (handle,), handle.n_records


#: one planned chunk: (cell indices, pack handles, force_packed, cost)
_Chunk = tuple[list[int], tuple[PackHandle, ...], bool, float]


def _run_on_pool(
    cells: Sequence[Any],
    workers: int,
    plan: Callable[[SharedPackStore], list[_Chunk]],
    execute: Callable[..., list],
    finish: Callable[[int, Any], None],
    obs: Optional["Observability"],
    prog: Optional[GridProgress],
) -> None:
    """Run a batch's chunks on the grid session's worker pool.

    ``plan(store)`` publishes the batch's packs and returns its chunks;
    they dispatch costliest-first to :func:`_run_chunk_worker`, which runs
    each through ``execute``.  ``finish(i, result)`` lands every result as
    its chunk completes.  Worker metric deltas, journal shards and trace
    shards are merged into the parent's registry, journal and tracer.
    Without an enclosing :func:`grid_session` the batch builds (and closes)
    its own session of ``workers`` processes.
    """
    if obs is not None and (obs.timeline is not None or obs.probe is not None):
        raise ValueError(
            "timeline/probe instruments are in-process only; run with jobs=1 "
            "or pass an Observability bundle with just a journal"
        )
    journal = obs.journal if obs is not None else None
    session = _SESSION
    ephemeral = session is None
    if ephemeral:
        session = _GridSession(workers)
    try:
        chunks = sorted(plan(session.store), key=lambda c: -c[3])  # costliest first
        pool = session.pool()
        trace_dir = session.trace_dir if current_tracer() is not None else None
        futures = {
            pool.submit(
                _run_chunk_worker, execute, [(i, cells[i]) for i in piece],
                handles, journal is not None, force_packed, trace_dir,
            ): piece
            for piece, handles, force_packed, _cost in chunks
        }
        registry = get_metrics()
        for future in as_completed(futures):
            try:
                landed, delta = future.result()
            except BaseException as exc:
                if prog is not None:
                    prog.cell_failed(futures[future], exc)
                raise
            # deltas are commutative/associative, so completion order —
            # which varies run to run — cannot change the merged totals
            registry.merge(delta)
            for i, result in landed:
                finish(i, result)
        if journal is not None:
            from repro.obs.journal import merge_shards

            obs.runs += merge_shards(journal, session.shard_dir, consume=True)
    finally:
        tracer = current_tracer()
        if tracer is not None:
            tracer.absorb_shards(session.trace_dir)
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
        if cache is not None:
            cache.put(keys[i], result, meta={"workload": cells[i].workload})
        if on_result is not None:
            on_result(i, result, False)
        if prog is not None:
            prog.cell_finish(i, cells[i].workload, _policy_of(cells[i]),
                             cached=False, instructions=result.instructions)
        for dup in duplicates.get(i, ()):
            dup_result = cache.get(keys[dup]) if cache is not None else None
            results[dup] = dup_result if dup_result is not None else result
            _COALESCED.inc()
            if on_result is not None:
                on_result(dup, results[dup], True)
            if prog is not None:
                prog.cell_finish(dup, cells[dup].workload, _policy_of(cells[dup]),
                                 cached=True,
                                 instructions=results[dup].instructions)

    workers = min(jobs, len(pending))
    if workers <= 1:
        for group in _workload_groups(cells, pending):
            if prog is not None:
                for i in group:
                    prog.cell_start(i, cells[i].workload, _policy_of(cells[i]))
            for i, result in zip(group, execute_cells([cells[i] for i in group], obs=obs)):
                finish(i, result)
    else:
        def plan(store: SharedPackStore) -> list[_Chunk]:
            # split each workload's run into chunks small enough to load-
            # balance, but never split a chunk across workloads
            chunk_size = max(1, -(-len(pending) // (workers * 2)))
            chunks: list[_Chunk] = []
            for indices, workload, warmup, sim in _affine_groups(cells, pending):
                handles, records = _publish(store, workload, warmup, sim)
                for at in range(0, len(indices), chunk_size):
                    piece = indices[at:at + chunk_size]
                    # a shipped handle means the worker replays the attached pack
                    chunks.append((piece, handles, bool(handles),
                                   chunk_cost(cells, piece, records)))
            return chunks

        _run_on_pool(cells, workers, plan, execute_cells, finish, obs, prog)

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
    """One picklable multi-core grid cell: a workload mix + spec + policy.

    ``workloads`` are registry names (mixes come from
    :func:`~repro.workloads.make_mixes`, which draws from the registry), so
    a mix cell crosses process boundaries by name alone.  ``policy``
    overrides only the policy *factory*, exactly like :class:`Cell`.
    """

    workloads: tuple[str, ...]
    spec: RunSpec
    policy: Optional[str] = None
    mix_id: Optional[int] = None

    def resolve_workloads(self) -> list[Any]:
        """The workload objects this mix runs, in core order."""
        return [by_name(name) for name in self.workloads]

    def label(self) -> str:
        """Display label for progress lines (``mix-<id>``)."""
        return f"mix-{self.mix_id}" if self.mix_id is not None else "mix"


def mix_cell_for(mix: Sequence[Any], spec: RunSpec, **overrides: Any) -> MixCell:
    """Build a MixCell from workload objects (carried by registry name)."""
    return MixCell(
        workloads=tuple(getattr(w, "name", str(w)) for w in mix),
        spec=spec,
        **overrides,
    )


def build_mix_config(cell: MixCell) -> SimConfig:
    """Materialise the mix's shared SimConfig (nominal windows; per-core
    QMM halving is ``simulate_mix``'s job)."""
    config = cell.spec.base_config()
    if cell.policy is not None:
        config.policy_factory = policy_factory(cell.policy, cell.spec.prefetcher)
    return config


def execute_mix_cell(
    cell: MixCell, *, obs: Optional["Observability"] = None,
    force_packed: bool = False,
) -> "MixResult":
    """Run one mix cell in the current process (the `jobs=1` path).

    ``force_packed`` routes the mix through the packed drive loop
    (bit-identical by contract; see
    :func:`repro.validate.check_mix_packed_matches_generator`) — set for
    mixes dispatched to workers, so each core replays its shm-attached or
    worker-local pack instead of regenerating records per policy.
    """
    from repro.cpu.multicore import simulate_mix

    workloads = cell.resolve_workloads()
    config = build_mix_config(cell)
    if force_packed and not config.packed:
        config.packed = True
    start = perf_counter()
    with trace_span("mix-cell", category="grid",
                    mix=cell.mix_id, policy=_policy_of(cell), cores=len(workloads)):
        if obs is not None:
            with obs.scoped(spec=asdict(cell.spec)):
                result = simulate_mix(workloads, config, obs=obs,
                                      mix_id=cell.mix_id)
        else:
            result = simulate_mix(workloads, config, mix_id=cell.mix_id)
    _account_cells([result], perf_counter() - start)
    return result


def execute_mix_cells(cells: Sequence[MixCell], *, obs: Optional["Observability"] = None,
                      force_packed: bool = False) -> list["MixResult"]:
    """Run mix cells in the current process, one after another."""
    return [execute_mix_cell(cell, obs=obs, force_packed=force_packed) for cell in cells]


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
    other work.  The parent publishes every mix workload's pack (at its
    QMM-halved window where applicable) through the session's shared store
    exactly once — mixes overlap heavily in workloads, so later mixes attach
    the columns the first one paid for.  Worker-dispatched mixes run the
    packed drive loop (bit-identical to the serial generator loop); there is
    no result cache at the mix level — the cacheable unit is the *isolation*
    run, which is an ordinary :class:`Cell`.
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
            prog.cell_finish(i, cells[i].label(), _policy_of(cells[i]), cached=False,
                             instructions=result.instructions)

    workers = min(jobs, len(cells))
    if workers <= 1:
        for i in range(len(cells)):
            if prog is not None:
                prog.cell_start(i, cells[i].label(), _policy_of(cells[i]))
            finish(i, execute_mix_cell(cells[i], obs=obs))
    else:
        def plan(store: SharedPackStore) -> list[_Chunk]:
            chunks: list[_Chunk] = []
            for i, cell in enumerate(cells):
                weight = policy_cost_weight(_policy_of(cell))
                handles: tuple[PackHandle, ...] = ()
                cost = 0.0
                for workload in cell.resolve_workloads():
                    warmup, sim = trace_window(workload, cell.spec.warmup_instructions,
                                               cell.spec.sim_instructions)
                    published, records = _publish(store, workload, warmup, sim)
                    handles += published
                    cost += records * weight
                # a mix's wall-clock tracks its total per-core record mass;
                # workers always run the packed mix loop
                chunks.append(([i], handles, True, cost))
            return chunks

        _run_on_pool(cells, workers, plan, execute_mix_cells, finish, obs, prog)

    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - defensive; every path above fills results
        raise RuntimeError(f"mix cells {missing} produced no result")
    if prog is not None:
        prog.end()
    return results  # type: ignore[return-value]
