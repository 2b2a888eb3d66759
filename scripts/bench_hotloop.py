"""Benchmark the packed-trace fast path against the generator drive loop.

For every (prefetcher x policy) cell the same simulation runs twice — once
through the historical generator path (``drive``) and once through the
batched fast path (``SimConfig(packed=True)`` -> ``drive_packed``).  Wall
time is the best of ``--repeats`` runs (single runs are noisy); throughput
is reported as trace records per second.  Before any timing is reported the
two paths' :class:`SimResult`\\ s are diffed field by field with the
differential-validation machinery and the script aborts on any mismatch —
the speedup is only meaningful if the answers are bit-identical.

``--grid`` additionally benchmarks whole-grid execution: the same
(workload × policy) cell batch dispatched per-cell to a worker pool with
per-worker packing (the historical parallel grid) versus the
workload-affine scheduler replaying zero-copy shared-memory packs
(``run_cells(jobs=N)``, whose pool always carries the pack store).  Both
legs' results are diffed against a serial reference run before any timing
is reported.

``--sampled`` benchmarks phase-sampled simulation
(:mod:`repro.experiments.sampling`) instead: one full packed run against
the stitched representative reconstruction at paper-like scale (default
200k+2M instructions on mcf), reporting wall-clock speedup next to the
reconstruction's relative IPC error and aborting if the error exceeds the
``SamplingConfig.max_rel_error`` bound.

Usage::

    PYTHONPATH=src python scripts/bench_hotloop.py \
        --workload astar --prefetchers berti ipcp bop \
        --policies discard dripper --repeats 3 --grid

``--out PATH`` (``--mix-out`` and ``--sampled-out`` in the other two modes)
writes a machine-readable summary there, so perf regressions are diffable
across commits.  Without it nothing is written: a bare run never overwrites
the recorded ``BENCH_*.json`` history.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from time import perf_counter

from repro.experiments import RunSpec, format_table
from repro.experiments.parallel import (
    _init_worker,
    _run_chunk_worker,
    cell_for,
    execute_cells,
    grid_session,
    mix_cell_for,
    run_cells,
    run_mix_cells,
)
from repro.validate import result_diff
from repro.workloads import by_name, clear_pack_cache, get_packed, make_mixes
from repro.cpu.simulator import simulate

def _timed(fn):
    """(wall seconds, return value) for one run of fn.

    Garbage is collected before each run so every timing starts from the
    same heap state, but the collector stays ON during the run: allocation
    pressure (and the GC pauses it causes) is a real cost of each path,
    and the production sweep runs with GC enabled.
    """
    gc.collect()
    start = perf_counter()
    value = fn()
    elapsed = perf_counter() - start
    return elapsed, value


def _best_of_interleaved(n: int, fn_a, fn_b):
    """Best wall seconds for two rivals over n interleaved runs each.

    Alternating a/b per repeat samples both paths across the same window
    of background load, so a noisy host biases the ratio far less than
    timing all of a then all of b.  One untimed pair runs first so neither
    rival pays interpreter warm-up (bytecode specialization, branch
    history) inside a timed repeat.

    Returns ``(best_a, value_a, best_b, value_b, ratio)`` where ``ratio``
    is the *median* of the per-pair ``t_a / t_b`` ratios: background load
    shifts both halves of a pair together (so each pair's ratio is far
    more stable than the two column minima, which can land in different
    load windows), and the median rejects the occasional pair that a
    scheduling hiccup split.
    """
    fn_a()
    fn_b()
    best_a = best_b = None
    value_a = value_b = None
    ratios = []
    for _ in range(n):
        t_a, value_a = _timed(fn_a)
        t_b, value_b = _timed(fn_b)
        ratios.append(t_a / t_b)
        if best_a is None or t_a < best_a:
            best_a = t_a
        if best_b is None or t_b < best_b:
            best_b = t_b
    ratios.sort()
    mid = len(ratios) // 2
    ratio = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
    return best_a, value_a, best_b, value_b, ratio


def bench_cell(workload, spec: RunSpec, repeats: int) -> dict:
    """Time one (prefetcher, policy) cell both ways; assert equality."""
    config = spec.config_for(workload)
    packed_config = spec.config_for(workload)
    packed_config.packed = True

    # pre-pack so the packed timing measures the drive loop, not trace
    # generation — exactly the steady state of a grid sweep, where one
    # PackedTrace is reused across every cell of the same workload
    packed_trace = get_packed(workload, config.warmup_instructions, config.sim_instructions)
    records = len(packed_trace)

    t_gen, gen_result, t_packed, packed_result, speedup = _best_of_interleaved(
        repeats,
        lambda: simulate(workload, config),
        lambda: simulate(workload, packed_config),
    )

    diffs = result_diff(gen_result, packed_result)
    if diffs:
        parts = "; ".join(f"{k}: {a!r} != {b!r}" for k, (a, b) in diffs.items())
        raise SystemExit(
            f"FAIL: packed result diverged from generator for "
            f"{workload.name}/{spec.prefetcher}/{spec.policy}: {parts}"
        )

    return {
        "prefetcher": spec.prefetcher,
        "policy": spec.policy,
        "records": records,
        "instructions": gen_result.instructions,
        "generator_seconds": t_gen,
        "packed_seconds": t_packed,
        "generator_records_per_sec": records / t_gen,
        "packed_records_per_sec": records / t_packed,
        #: median of per-pair wall-time ratios (see _best_of_interleaved)
        "speedup": speedup,
        "ipc": gen_result.ipc,
    }


def _legacy_grid(cells, jobs: int):
    """The pre-affine parallel grid: one task per cell, per-worker packing.

    Reproduces the historical dispatch shape — a fresh pool, every cell its
    own task, no shared pack store — so the grid benchmark compares the new
    scheduler against what ``run_cells(jobs=N)`` actually did before.
    """
    results = [None] * len(cells)
    with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                             initargs=(None, ())) as pool:
        futures = [
            pool.submit(_run_chunk_worker, execute_cells, [(i, cell)], (), False, False)
            for i, cell in enumerate(cells)
        ]
        for future in as_completed(futures):
            landed, _delta = future.result()
            for i, result in landed:
                results[i] = result
    return results


def _shm_grid(cells, jobs: int):
    """The shm + workload-affine grid (a fresh session per run, like a CLI call)."""
    return run_cells(cells, jobs=jobs)


def bench_grid(workloads, policies, prefetcher: str, warmup: int, sim: int,
               jobs: int, repeats: int) -> dict:
    """Time the whole grid both ways; assert both match a serial reference."""
    spec = RunSpec(prefetcher=prefetcher, warmup_instructions=warmup,
                   sim_instructions=sim)
    cells = [cell_for(by_name(name), spec, policy=policy)
             for name in workloads for policy in policies]
    reference = run_cells(cells, jobs=1)

    t_legacy, legacy_results, t_shm, shm_results, speedup = _best_of_interleaved(
        repeats,
        lambda: _legacy_grid(cells, jobs),
        lambda: _shm_grid(cells, jobs),
    )
    for tag, results in (("legacy", legacy_results), ("shm", shm_results)):
        for cell, got, want in zip(cells, results, reference):
            diffs = result_diff(got, want)
            if diffs:
                parts = "; ".join(f"{k}: {a!r} != {b!r}" for k, (a, b) in diffs.items())
                raise SystemExit(
                    f"FAIL: {tag} grid diverged from serial for "
                    f"{cell.workload}/{cell.policy}: {parts}"
                )

    return {
        "workloads": list(workloads),
        "policies": list(policies),
        "prefetcher": prefetcher,
        "cells": len(cells),
        "jobs": jobs,
        "legacy_seconds": t_legacy,
        "shm_affine_seconds": t_shm,
        #: median of per-pair wall-time ratios (see _best_of_interleaved)
        "speedup": speedup,
    }


def bench_mix(n_mixes: int, cores: int, policies, prefetcher: str,
              warmup: int, sim: int, jobs: int, repeats: int,
              seed: int = 42) -> dict:
    """Time the Fig. 19 mix grid both ways; assert per-core equality.

    Serial generator stepping (``run_mix_cells(jobs=1)``, the historical
    ``simulate_mix`` path) races the mix-affine scheduler dispatching whole
    mixes to ``jobs`` workers on packed cores.  One shared-memory grid
    session stays open across the repeats — the steady state of a 300-mix
    study, where the worker pool and the published packs are paid once and
    amortised over hundreds of mixes — and the untimed warm-up pair inside
    :func:`_best_of_interleaved` is what pays them, so neither leg times
    session setup.  Every core of every mix is diffed between the legs
    before any timing is reported.
    """
    spec = RunSpec(prefetcher=prefetcher, warmup_instructions=warmup,
                   sim_instructions=sim, packed=False)
    mixes = make_mixes(n_mixes, cores, seed)
    cells = [mix_cell_for(mix, spec, policy=policy, mix_id=i)
             for i, mix in enumerate(mixes) for policy in policies]

    with grid_session(jobs):
        t_serial, serial_results, t_packed, packed_results, speedup = _best_of_interleaved(
            repeats,
            lambda: run_mix_cells(cells, jobs=1),
            lambda: run_mix_cells(cells, jobs=jobs),
        )
    for cell, want, got in zip(cells, serial_results, packed_results):
        for core, (a, b) in enumerate(zip(want.results, got.results)):
            diffs = result_diff(a, b)
            if diffs:
                parts = "; ".join(f"{k}: {x!r} != {y!r}" for k, (x, y) in diffs.items())
                raise SystemExit(
                    f"FAIL: packed mix grid diverged from serial generator "
                    f"stepping for mix {cell.mix_id}/{cell.policy} core {core} "
                    f"({a.workload}): {parts}"
                )
    instructions = sum(r.instructions for mix_result in serial_results
                       for r in mix_result.results)
    return {
        "mixes": n_mixes,
        "cores": cores,
        "policies": list(policies),
        "prefetcher": prefetcher,
        "cells": len(cells),
        "jobs": jobs,
        "instructions": instructions,
        "serial_generator_seconds": t_serial,
        "packed_affine_seconds": t_packed,
        "serial_mixes_per_sec": len(cells) / t_serial,
        "packed_mixes_per_sec": len(cells) / t_packed,
        #: median of per-pair wall-time ratios (see _best_of_interleaved)
        "speedup": speedup,
    }


def bench_sampled(workload, prefetcher: str, policy: str, warmup: int,
                  sim: int, sampling, repeats: int) -> dict:
    """Time a full packed run against its phase-sampled reconstruction.

    Both legs replay the same pre-built pack; the sampled leg profiles,
    clusters, and stitches only the representative intervals
    (:mod:`repro.experiments.sampling`).  Unlike the other benchmarks the
    two legs are *not* bit-identical by contract — sampling trades accuracy
    for wall-clock — so instead of a result diff this asserts the
    reconstruction's relative IPC error stays within
    ``sampling.max_rel_error`` of the full run, and reports the error next
    to the speedup.
    """
    from repro.experiments.sampling import plan_phases

    spec = RunSpec(prefetcher=prefetcher, policy=policy,
                   warmup_instructions=warmup, sim_instructions=sim,
                   packed=True)
    full_config = spec.config_for(workload)
    sampled_config = spec.config_for(workload)
    sampled_config.sampling = sampling

    packed_trace = get_packed(workload, warmup, sim)
    plan = plan_phases(packed_trace, warmup, sim, sampling)

    t_full, full_result, t_sampled, sampled_result, speedup = _best_of_interleaved(
        repeats,
        lambda: simulate(workload, full_config),
        lambda: simulate(workload, sampled_config),
    )

    rel_error = abs(sampled_result.ipc - full_result.ipc) / full_result.ipc
    if rel_error > sampling.max_rel_error:
        raise SystemExit(
            f"FAIL: sampled IPC {sampled_result.ipc:.4f} is {rel_error:.2%} "
            f"from the full run's {full_result.ipc:.4f} for {workload.name}/"
            f"{prefetcher}/{policy} — over the {sampling.max_rel_error:.0%} "
            f"bound the SamplingConfig claims"
        )

    return {
        "workload": workload.name,
        "prefetcher": prefetcher,
        "policy": policy,
        "warmup_instructions": warmup,
        "sim_instructions": sim,
        "records": len(packed_trace),
        "intervals": sampling.intervals,
        "phases": len(plan.phases),
        "warmup_fraction": sampling.warmup_fraction,
        "seed": sampling.seed,
        "simulated_instructions": plan.simulated_instructions(),
        "total_instructions": plan.total_instructions,
        "full_seconds": t_full,
        "sampled_seconds": t_sampled,
        #: median of per-pair wall-time ratios (see _best_of_interleaved)
        "speedup": speedup,
        "ipc_full": full_result.ipc,
        "ipc_sampled": sampled_result.ipc,
        "ipc_ci_lo": sampled_result.ipc_ci_lo,
        "ipc_ci_hi": sampled_result.ipc_ci_hi,
        "rel_error": rel_error,
        "max_rel_error": sampling.max_rel_error,
    }


def build_parser() -> argparse.ArgumentParser:
    """The command line; every output path is opt-in."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="astar")
    parser.add_argument("--prefetchers", nargs="+", default=["berti", "ipcp", "bop"])
    parser.add_argument("--policies", nargs="+", default=["discard", "dripper"])
    parser.add_argument("--warmup", type=int, default=20_000)
    parser.add_argument("--sim", type=int, default=60_000)
    parser.add_argument("--repeats", type=int, default=5,
                        help="take the best of N runs per path (default: 5)")
    parser.add_argument("--grid", action="store_true",
                        help="also benchmark whole-grid execution: per-cell "
                             "dispatch vs the shm + workload-affine scheduler")
    parser.add_argument("--grid-workloads", nargs="+",
                        default=["astar", "hmmer", "mcf", "lbm"])
    parser.add_argument("--grid-jobs", type=int, default=2)
    parser.add_argument("--grid-repeats", type=int, default=3,
                        help="interleaved grid repeats (default: 3)")
    parser.add_argument("--out", default=None,
                        help="write the JSON summary here (nothing is written without it)")
    parser.add_argument("--mix", action="store_true",
                        help="benchmark the multi-core mix grid instead: "
                             "serial generator stepping vs whole mixes "
                             "dispatched to workers on packed cores")
    parser.add_argument("--mix-mixes", type=int, default=2,
                        help="mixes in the mix benchmark grid")
    parser.add_argument("--mix-cores", type=int, default=4,
                        help="cores per mix in the mix benchmark")
    parser.add_argument("--mix-jobs", type=int, default=2,
                        help="worker processes for the packed mix leg")
    parser.add_argument("--mix-warmup", type=int, default=2_000)
    parser.add_argument("--mix-sim", type=int, default=6_000)
    parser.add_argument("--mix-repeats", type=int, default=3,
                        help="interleaved mix-grid repeats")
    parser.add_argument("--mix-out", default=None,
                        help="write the mix benchmark JSON here (nothing is written without it)")
    parser.add_argument("--sampled", action="store_true",
                        help="benchmark phase-sampled simulation instead: a "
                             "full packed run vs the stitched representative "
                             "reconstruction, reporting speedup + IPC error")
    parser.add_argument("--sampled-workload", default="mcf")
    parser.add_argument("--sampled-policy", default="dripper")
    parser.add_argument("--sampled-warmup", type=int, default=200_000)
    parser.add_argument("--sampled-sim", type=int, default=2_000_000)
    parser.add_argument("--sampled-intervals", type=int, default=64)
    parser.add_argument("--sampled-phases", type=int, default=8)
    parser.add_argument("--sampled-warmup-fraction", type=float, default=0.5)
    parser.add_argument("--sampled-repeats", type=int, default=2,
                        help="interleaved sampled-benchmark repeats (each "
                             "repeat pays one full 2M-instruction run)")
    parser.add_argument("--sampled-out", default=None,
                        help="write the sampled benchmark JSON here (nothing is written "
                             "without it)")
    return parser


def main() -> int:
    args = build_parser().parse_args()

    if args.sampled:
        from repro.experiments.sampling import SamplingConfig

        clear_pack_cache()
        sampling = SamplingConfig(intervals=args.sampled_intervals,
                                  phases=args.sampled_phases,
                                  warmup_fraction=args.sampled_warmup_fraction)
        cell = bench_sampled(by_name(args.sampled_workload),
                             args.prefetchers[0], args.sampled_policy,
                             args.sampled_warmup, args.sampled_sim,
                             sampling, args.sampled_repeats)
        print(format_table(
            ["full", "sampled", "speedup", "ipc full", "ipc sampled", "error"],
            [(f"{cell['full_seconds']:.2f}s", f"{cell['sampled_seconds']:.2f}s",
              f"{cell['speedup']:.2f}x", f"{cell['ipc_full']:.4f}",
              f"{cell['ipc_sampled']:.4f}", f"{cell['rel_error']:.2%}")],
            f"phase-sampled: {cell['workload']}/{cell['prefetcher']}/"
            f"{cell['policy']}, {cell['warmup_instructions']}+"
            f"{cell['sim_instructions']} instructions, {cell['intervals']} "
            f"intervals -> {cell['phases']} phases "
            f"(median of {args.sampled_repeats})",
        ))
        if args.sampled_out:
            payload = {
                "benchmark": "sampled-hotloop",
                "python": platform.python_version(),
                "cpus": len(os.sched_getaffinity(0)),
                "repeats": args.sampled_repeats,
                "sampled": cell,
            }
            Path(args.sampled_out).write_text(json.dumps(payload, indent=2) + "\n")
            print(f"\nwrote {args.sampled_out}")
        return 0

    if args.mix:
        clear_pack_cache()
        mix = bench_mix(args.mix_mixes, args.mix_cores, args.policies,
                        args.prefetchers[0], args.mix_warmup, args.mix_sim,
                        args.mix_jobs, args.mix_repeats)
        print(format_table(
            ["cells", "jobs", "serial generator", "packed affine", "speedup"],
            [(str(mix["cells"]), str(mix["jobs"]),
              f"{mix['serial_generator_seconds']:.2f}s",
              f"{mix['packed_affine_seconds']:.2f}s",
              f"{mix['speedup']:.2f}x")],
            f"mix grid: {mix['mixes']} mixes x {mix['cores']} cores x "
            f"{len(mix['policies'])} policies, {mix['prefetcher']} "
            f"(median of {args.mix_repeats})",
        ))
        if args.mix_out:
            payload = {
                "benchmark": "mix-hotloop",
                "python": platform.python_version(),
                #: CPUs the parallel leg actually had — on a 1-CPU runner
                #: the jobs>1 dispatch cannot overlap and the measured
                #: speedup is the fused-stepper serial gain alone
                "cpus": len(os.sched_getaffinity(0)),
                "repeats": args.mix_repeats,
                "mix": mix,
            }
            Path(args.mix_out).write_text(json.dumps(payload, indent=2) + "\n")
            print(f"\nwrote {args.mix_out}")
        return 0

    workload = by_name(args.workload)
    clear_pack_cache()
    cells = []
    for prefetcher in args.prefetchers:
        for policy in args.policies:
            spec = RunSpec(prefetcher=prefetcher, policy=policy,
                           warmup_instructions=args.warmup,
                           sim_instructions=args.sim, packed=False)
            cells.append(bench_cell(workload, spec, args.repeats))

    rows = [
        (c["prefetcher"], c["policy"],
         f"{c['generator_records_per_sec'] / 1e3:.1f}k",
         f"{c['packed_records_per_sec'] / 1e3:.1f}k",
         f"{c['speedup']:.2f}x")
        for c in cells
    ]
    print(format_table(
        ["prefetcher", "policy", "gen rec/s", "packed rec/s", "speedup"],
        rows,
        f"{workload.name}: generator vs packed drive loop "
        f"(best of {args.repeats}, {args.warmup}+{args.sim} instructions)",
    ))

    payload = {
        "benchmark": "hotloop",
        "workload": workload.name,
        "warmup_instructions": args.warmup,
        "sim_instructions": args.sim,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "cells": cells,
    }

    if args.grid:
        grid = bench_grid(args.grid_workloads, args.policies,
                          args.prefetchers[0], args.warmup, args.sim,
                          args.grid_jobs, args.grid_repeats)
        payload["grid"] = grid
        print(format_table(
            ["cells", "jobs", "per-cell dispatch", "shm + affine", "speedup"],
            [(str(grid["cells"]), str(grid["jobs"]),
              f"{grid['legacy_seconds']:.2f}s",
              f"{grid['shm_affine_seconds']:.2f}s",
              f"{grid['speedup']:.2f}x")],
            f"grid: {len(grid['workloads'])} workloads x {len(grid['policies'])} "
            f"policies, {args.prefetchers[0]} (best of {args.grid_repeats})",
        ))
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
