"""Command-line interface.

Subcommands::

    python -m repro run       --workload astar --prefetcher berti --policy dripper
    python -m repro compare   --workload astar --policies discard permit dripper
    python -m repro sweep     --param stlb --values 384 768 1536 --workloads astar hmmer
    python -m repro inspect   --workload astar --policy dripper
    python -m repro workloads --set seen --suite GAP
    python -m repro features
    python -m repro storage
    python -m repro snapshot  --workload astar --out astar.rptr --instructions 100000
    python -m repro convert   --champsim trace.bin --out trace.rptr
    python -m repro mix       --mixes 300 --jobs 8 --cache-dir .cache --progress
    python -m repro validate  --workloads astar hmmer --jobs 2
    python -m repro status    --journal runs.jsonl --metrics metrics.prom

``mix`` runs the paper's Figure 19 study: N eight-core mixes per policy,
each mix stepped in retire-clock order against a shared LLC+DRAM, reported
as the weighted-speedup distribution over the first (baseline) policy.
Isolation runs are ordinary grid cells — ``--cache-dir`` dedupes them
across mixes and invocations — and ``--jobs`` fans whole mixes out to
workers.  Every command runs the packed fast path (``RunSpec``'s default),
which is bit-identical to the generator loop.

``run``, ``compare``, ``sweep``, and ``inspect`` accept ``--validate``, which
attaches a runtime invariant checker to every simulation (conservation laws
asserted per epoch and at collect time; a violation aborts the command with a
counter snapshot).  ``validate`` runs the differential suite — determinism,
parallel-vs-serial, discard-vs-source-suppression, epoch invariance,
packed-vs-generator equality, prefetch replay vs live, policy lockstep vs
solo, the sampled error bound and determinism, mix packed-vs-generator,
per-run invariant passes, and mutation detection.

``run``, ``compare``, ``sweep``, and ``inspect`` accept observability flags:
``--timeline-out`` (per-epoch CSV/JSONL time series), ``--journal``
(append-only JSONL run records), ``--profile`` (each record-kernel section's
share of the sampled CPU time, over every run), ``--json`` (machine-readable stdout),
``--metrics-out`` (process-wide counter/gauge/histogram snapshot as
Prometheus text, or JSON when the path ends in ``.json``), and
``--trace-out`` (Chrome trace-event JSON of the run's spans — pack,
drive, collect, cache-write — loadable in Perfetto or
``chrome://tracing``; under ``--jobs`` the workers' spans are merged in with
their real pids).  ``compare`` and ``sweep`` additionally accept ``--jobs``
(process-pool grid execution), ``--cache-dir`` (content-addressed result
cache; unchanged cells are never re-simulated), and ``--progress`` (live per-cell progress lines with ETA on stderr).

``status`` summarises a finished (or in-flight) run journal — runs,
workloads, policies, wall time, aggregate simulation throughput, per-policy
IPC — and, given ``--metrics``, the matching exported metrics snapshot.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from repro.core.dripper import storage_breakdown_bits, storage_overhead_kib
from repro.core.features import FEATURES, TABLE_I_FEATURES
from repro.core.filter import PerceptronFilter
from repro.core.introspect import filter_state, format_filter_state
from repro.core.system_features import SYSTEM_FEATURES
from repro.experiments.cache import ResultCache
from repro.experiments.report import format_pct, format_table
from repro.experiments.parallel import cell_for, run_cells
from repro.experiments.runner import RunSpec
from repro.experiments.sweep import (
    dram_latency_transform,
    dtlb_size_transform,
    stlb_size_transform,
    sweep_epoch_length,
    sweep_parameter,
)
from repro.obs import Observability, Probe, RunJournal, TimelineRecorder
from repro.workloads import (
    by_name,
    non_intensive_workloads,
    seen_workloads,
    unseen_workloads,
)
from repro.workloads.trace_io import FileWorkload, convert_champsim, snapshot_workload

_POLICIES = ("discard", "permit", "discard-ptw", "iso", "ppf", "ppf+dthr", "dripper", "dripper-sf")
_PREFETCHERS = ("berti", "berti-timely", "ipcp", "bop", "stride", "next-line", "none")


def _sampling_config(args: argparse.Namespace):
    """Build a SamplingConfig from ``--sampling``/friends (None when off)."""
    phases = getattr(args, "sampling", None)
    if not phases:
        return None
    from repro.experiments.sampling import SamplingConfig

    return SamplingConfig(
        phases=phases,
        intervals=getattr(args, "sampling_intervals", 64),
        seed=getattr(args, "sampling_seed", 0),
    )


def _spec(args: argparse.Namespace, policy: str) -> RunSpec:
    return RunSpec(
        prefetcher=args.prefetcher,
        policy=policy,
        l2_prefetcher=args.l2,
        warmup_instructions=args.warmup,
        sim_instructions=args.sim,
        large_page_fraction=args.large_pages,
        validate=getattr(args, "validate", False),
        sampling=_sampling_config(args),
    )


def _result_rows(result) -> list[tuple[str, str]]:
    rows = [
        ("IPC", f"{result.ipc:.4f}"),
        ("L1D MPKI", f"{result.l1d_mpki:.2f}"),
        ("LLC MPKI", f"{result.llc_mpki:.2f}"),
        ("dTLB MPKI", f"{result.dtlb_mpki:.2f}"),
        ("sTLB MPKI", f"{result.stlb_mpki:.2f}"),
        ("prefetch accuracy", f"{result.prefetch_accuracy:.3f}"),
        ("prefetch coverage", f"{result.prefetch_coverage:.3f}"),
        ("pgc issued/discarded", f"{result.pgc_issued}/{result.pgc_discarded}"),
        ("pgc useful/useless", f"{result.pgc_useful}/{result.pgc_useless}"),
        ("speculative walks", str(result.speculative_walks)),
        ("DRAM reads/writes", f"{result.dram_reads}/{result.dram_writes}"),
    ]
    if result.sampled_intervals:
        rows.insert(1, (
            "IPC CI / sampling",
            f"[{result.ipc_ci_lo:.4f}, {result.ipc_ci_hi:.4f}] "
            f"({result.sampled_phases} phases / "
            f"{result.sampled_intervals} intervals)"))
    return rows


def _resolve_workload(args: argparse.Namespace):
    if getattr(args, "trace_file", None):
        return FileWorkload(args.trace_file)
    return by_name(args.workload)


def _make_obs(args: argparse.Namespace, *, keep_engine: bool = False) -> Optional[Observability]:
    """Build an Observability bundle from CLI flags (None when all are off)."""
    timeline = None
    if getattr(args, "timeline_out", None):
        timeline = TimelineRecorder(sample_every=getattr(args, "timeline_every", 1))
    journal = RunJournal(args.journal) if getattr(args, "journal", None) else None
    probe = Probe() if getattr(args, "profile", False) else None
    if timeline is None and journal is None and probe is None and not keep_engine:
        return None
    return Observability(timeline=timeline, journal=journal, probe=probe, keep_engine=keep_engine)


def _setup_telemetry(args: argparse.Namespace) -> None:
    """Install a parent tracer when span capture was requested."""
    if getattr(args, "trace_out", None):
        from repro.obs.tracing import Tracer, install_tracer

        install_tracer(Tracer(role="parent"))


def _emit_telemetry(args: argparse.Namespace) -> None:
    """Write the metrics snapshot / merged Chrome trace the flags asked for."""
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from repro.obs.metrics import get_metrics, to_json, to_prometheus

        snap = get_metrics().snapshot()
        as_json = str(metrics_out).endswith(".json")
        text = to_json(snap) if as_json else to_prometheus(snap)
        with open(metrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        series = sum(len(m["series"]) for group in
                     (snap.counters, snap.gauges, snap.histograms)
                     for m in group.values())
        print(f"metrics: {series} series -> {metrics_out}", file=sys.stderr)
    if getattr(args, "trace_out", None):
        from repro.obs.tracing import current_tracer, install_tracer

        tracer = current_tracer()
        if tracer is not None:
            count = tracer.write_chrome_trace(args.trace_out)
            print(f"trace: {count} span(s) -> {args.trace_out}", file=sys.stderr)
            install_tracer(None)


def _progress_sink(args: argparse.Namespace):
    if getattr(args, "progress", False):
        from repro.obs.progress import progress_printer

        return progress_printer()
    return None


def _emit_obs(args: argparse.Namespace, obs: Optional[Observability]) -> None:
    """Flush timeline/journal sinks and print the profile breakdown."""
    _emit_telemetry(args)
    if obs is None:
        return
    if obs.timeline is not None:
        count = obs.timeline.write(args.timeline_out)
        print(f"timeline: {count} epoch rows -> {args.timeline_out}", file=sys.stderr)
    if obs.journal is not None:
        print(f"journal: {obs.journal.records_written} record(s) -> {obs.journal.path}",
              file=sys.stderr)
    obs.close()
    if obs.probe is not None and not getattr(args, "json", False):
        print(obs.probe.format_breakdown())


def _with_profile(payload: dict, obs: Optional[Observability]) -> dict:
    """Add the probe's section shares over every run of the command."""
    if obs is not None and obs.probe is not None:
        payload["profile"] = {"samples": obs.probe.samples,
                              "named_share": obs.probe.named_share,
                              "sections": obs.probe.breakdown()}
    return payload


def _json_payload(workload, spec: RunSpec, result, obs: Optional[Observability]) -> dict:
    payload = {
        "workload": workload.name,
        "spec": asdict(spec),
        "result": asdict(result),
        "derived": {
            "prefetch_accuracy": result.prefetch_accuracy,
            "prefetch_coverage": result.prefetch_coverage,
            "pgc_accuracy": result.pgc_accuracy,
            "branch_mpki": result.branch_mpki,
        },
    }
    if obs is not None:
        payload["wall_seconds"] = obs.last_wall_seconds
    return _with_profile(payload, obs)


def cmd_run(args: argparse.Namespace) -> int:
    """`repro run`: one workload, one policy, full metric table."""
    _setup_telemetry(args)
    workload = _resolve_workload(args)
    spec = _spec(args, args.policy)
    obs = _make_obs(args)
    result = run_cells([cell_for(workload, spec)], obs=obs)[0]
    if args.json:
        print(json.dumps(_json_payload(workload, spec, result, obs), indent=2))
    else:
        print(format_table(["metric", "value"], _result_rows(result),
                           f"{workload.name} / {args.prefetcher} / {args.policy}"))
    _emit_obs(args, obs)
    return 0


def _speedup_cell(result, base) -> Optional[float]:
    """Speedup-1 in percent, or None when the baseline IPC is degenerate."""
    try:
        return 100 * (result.speedup_over(base) - 1)
    except ValueError:
        return None


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    return ResultCache(args.cache_dir) if getattr(args, "cache_dir", None) else None


def _emit_cache_stats(cache: Optional[ResultCache]) -> None:
    if cache is not None:
        stats = cache.stats
        print(f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
              f"{stats['stores']} store(s) -> {cache.root}", file=sys.stderr)


def cmd_compare(args: argparse.Namespace) -> int:
    """`repro compare`: one workload under several policies."""
    _setup_telemetry(args)
    workload = _resolve_workload(args)
    obs = _make_obs(args)
    cache = _make_cache(args)
    cells = [cell_for(workload, _spec(args, policy)) for policy in args.policies]
    results = run_cells(cells, jobs=args.jobs, cache=cache, obs=obs,
                        progress=_progress_sink(args))
    base = results[0]
    speedups = [_speedup_cell(r, base) for r in results]
    if args.json:
        print(json.dumps(_with_profile({
            "workload": workload.name,
            "prefetcher": args.prefetcher,
            "baseline": args.policies[0],
            "runs": [
                {"policy": r.policy, "ipc": r.ipc, "speedup_pct": s,
                 "pgc_issued": r.pgc_issued, "pgc_useful": r.pgc_useful,
                 "pgc_useless": r.pgc_useless}
                for r, s in zip(results, speedups)
            ],
        }, obs), indent=2))
    else:
        rows = [
            (r.policy, f"{r.ipc:.4f}", format_pct(s) if s is not None else "n/a",
             f"{r.pgc_issued}", f"{r.pgc_useful}", f"{r.pgc_useless}")
            for r, s in zip(results, speedups)
        ]
        print(format_table(
            ["policy", "IPC", f"vs {args.policies[0]}", "pgc issued", "useful", "useless"],
            rows, f"{workload.name} / {args.prefetcher}",
        ))
    _emit_cache_stats(cache)
    _emit_obs(args, obs)
    return 0


_SWEEP_TRANSFORMS = {
    "stlb": stlb_size_transform,
    "dtlb": dtlb_size_transform,
    "dram-latency": dram_latency_transform,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    """`repro sweep`: a sensitivity sweep over several workloads."""
    workloads = [by_name(name) for name in args.workloads]
    spec = RunSpec(
        prefetcher=args.prefetcher,
        warmup_instructions=args.warmup,
        sim_instructions=args.sim,
        validate=args.validate,
        sampling=_sampling_config(args),
    )
    _setup_telemetry(args)
    obs = _make_obs(args)
    cache = _make_cache(args)
    common = dict(base_spec=spec, obs=obs, jobs=args.jobs, cache=cache,
                  progress=_progress_sink(args))
    if args.param == "epoch":
        epoch_data = sweep_epoch_length(workloads, args.values, **common)
        data = {value: {"dripper": pct} for value, pct in epoch_data.items()}
        policies = ["dripper"]
    else:
        data = sweep_parameter(
            workloads, _SWEEP_TRANSFORMS[args.param], args.values,
            policies=tuple(args.policies), **common,
        )
        policies = list(args.policies)
    if args.json:
        print(json.dumps(_with_profile({
            "param": args.param,
            "prefetcher": args.prefetcher,
            "workloads": [w.name for w in workloads],
            "points": {str(v): data[v] for v in args.values},
        }, obs), indent=2))
    else:
        rows = [
            (str(value), *(format_pct(data[value][p]) for p in policies))
            for value in args.values
        ]
        print(format_table(
            [args.param, *policies], rows,
            f"sweep {args.param} / {args.prefetcher} / {len(workloads)} workload(s), % over discard",
        ))
    _emit_cache_stats(cache)
    _emit_obs(args, obs)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """`repro inspect`: run a workload, then dump the trained filter state."""
    _setup_telemetry(args)
    workload = _resolve_workload(args)
    spec = _spec(args, args.policy)
    obs = _make_obs(args, keep_engine=True)
    result = run_cells([cell_for(workload, spec)], obs=obs)[0]
    policy = obs.last_engine.policy
    if not isinstance(policy, PerceptronFilter):
        print(f"policy {policy.name!r} is not a perceptron filter; nothing to inspect",
              file=sys.stderr)
        return 1
    if args.json:
        payload = _json_payload(workload, spec, result, obs)
        payload["filter"] = filter_state(policy)
        print(json.dumps(payload, indent=2))
    else:
        print(f"{workload.name} / {args.prefetcher} / {policy.name}: IPC {result.ipc:.4f}")
        print(format_filter_state(policy))
    _emit_obs(args, obs)
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    """`repro workloads`: list a registry set, optionally by suite."""
    sets = {
        "seen": seen_workloads,
        "unseen": unseen_workloads,
        "non-intensive": non_intensive_workloads,
    }
    workloads = sets[args.set]()
    if args.suite is not None:
        known = sorted({w.suite for w in workloads})
        if args.suite not in known:
            raise SystemExit(
                f"unknown suite {args.suite!r} in the {args.set!r} set; "
                f"known suites: {', '.join(known)}"
            )
    rows = [
        (w.name, w.suite, f"{w.mean_gap:.1f}")
        for w in workloads
        if args.suite is None or w.suite == args.suite
    ]
    print(format_table(["name", "suite", "mean gap"], rows, f"{args.set} workloads ({len(rows)})"))
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    """`repro features`: print the MOKA feature library."""
    rows = [(name, "Table I" if f.table_i else "expansion") for name, f in sorted(FEATURES.items())]
    print(format_table(["program feature", "origin"], rows, f"{len(FEATURES)} program features"))
    print()
    print(format_table(
        ["system feature", "active when"],
        [(s.name, f"value {s.direction} {s.default_threshold}") for s in SYSTEM_FEATURES.values()],
        f"{len(SYSTEM_FEATURES)} system features",
    ))
    print(f"\nTable I subset: {len(TABLE_I_FEATURES)} features")
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """`repro snapshot`: materialise a workload as a native trace file."""
    count = snapshot_workload(by_name(args.workload), args.out, args.instructions)
    print(f"wrote {count} records ({args.instructions} instructions) to {args.out}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """`repro convert`: ChampSim trace -> native trace."""
    count = convert_champsim(args.champsim, args.out, max_instructions=args.max_instructions)
    print(f"converted {count} records to {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """`repro validate`: run the differential/metamorphic validation suite."""
    from repro.validate import run_validation_suite

    progress = None
    if not args.json:
        def progress(outcome) -> None:
            mark = "PASS" if outcome.passed else "FAIL"
            print(f"  {mark}  {outcome.name}: {outcome.detail}", file=sys.stderr)

    outcomes = run_validation_suite(
        args.workloads,
        policies=tuple(args.policies),
        prefetcher=args.prefetcher,
        warmup=args.warmup,
        sim=args.sim,
        seed=args.seed,
        fuzz_cells=args.fuzz,
        jobs=args.jobs,
        progress=progress,
    )
    failed = [o for o in outcomes if not o.passed]
    if args.json:
        print(json.dumps({
            "checks": [asdict(o) for o in outcomes],
            "passed": len(outcomes) - len(failed),
            "failed": len(failed),
        }, indent=2))
    else:
        rows = [("PASS" if o.passed else "FAIL", o.name, o.detail) for o in outcomes]
        print(format_table(
            ["verdict", "check", "detail"], rows,
            f"validation suite: {len(outcomes) - len(failed)}/{len(outcomes)} passed",
        ))
    return 1 if failed else 0


def cmd_mix(args: argparse.Namespace) -> int:
    """`repro mix`: the Figure 19 multi-core weighted-speedup study."""
    from repro.experiments.figures import fig19_multicore

    _setup_telemetry(args)
    # mixes are multi-core: timelines/probes are single-core instruments,
    # so the mix command only offers the journal + process-wide exports
    obs = Observability(journal=RunJournal(args.journal)) if args.journal else None
    cache = _make_cache(args)
    data = fig19_multicore(
        n_mixes=args.mixes,
        cores=args.cores,
        warmup_instructions=args.warmup,
        sim_instructions=args.sim,
        seed=args.seed,
        policies=tuple(args.policies),
        jobs=args.jobs,
        cache=cache,
        obs=obs,
        validate=args.validate,
        progress=_progress_sink(args),
    )
    if args.json:
        print(json.dumps({
            "mixes": args.mixes,
            "cores": args.cores,
            "baseline": args.policies[0],
            "policies": data,
        }, indent=2))
    else:
        rows = []
        for policy, d in data.items():
            pct = d["per_mix_pct"]
            rows.append((
                policy,
                format_pct(d["geomean_pct"]),
                format_pct(pct[0]),
                format_pct(pct[len(pct) // 2]),
                format_pct(pct[-1]),
            ))
        print(format_table(
            ["policy", "geomean", "min", "median", "max"], rows,
            f"weighted speedup over {args.policies[0]}: {args.mixes} mix(es) "
            f"x {args.cores} cores",
        ))
    _emit_cache_stats(cache)
    _emit_obs(args, obs)
    return 0


def _summarize_journal(records: list[dict]) -> dict:
    """Aggregate a journal's records into the `repro status` summary."""
    workloads = sorted({r["workload"]["name"] for r in records})
    policies = sorted({r["config"]["policy"] for r in records})
    wall = sum(r.get("wall_seconds") or 0.0 for r in records)
    instructions = sum(r["result"]["instructions"] for r in records)
    per_policy: dict[str, dict] = {}
    for policy in policies:
        runs = [r for r in records if r["config"]["policy"] == policy]
        ipcs = [r["result"]["ipc"] for r in runs]
        per_policy[policy] = {
            "runs": len(runs),
            "mean_ipc": sum(ipcs) / len(ipcs) if ipcs else None,
        }
    # multicore cores journal one record each, tagged with mix id + core
    # index in the record context (see simulate_mix)
    mix_records = [
        r for r in records if (r.get("context") or {}).get("mix") is not None
    ]
    return {
        "runs": len(records),
        "workloads": workloads,
        "policies": policies,
        "wall_seconds": wall,
        "instructions": instructions,
        "instructions_per_second": instructions / wall if wall > 0 else None,
        "per_policy": per_policy,
        "mix_core_runs": len(mix_records),
        "mixes": len({r["context"]["mix"] for r in mix_records}),
        "hosts": sorted({r["host"]["hostname"] for r in records if "host" in r}),
    }


def cmd_status(args: argparse.Namespace) -> int:
    """`repro status`: summarise a run journal (+ optional metrics export)."""
    from repro.obs.journal import read_journal

    records = read_journal(args.journal)
    if not records:
        print(f"status: no records in {args.journal}", file=sys.stderr)
        return 1
    summary = _summarize_journal(records)
    metrics_summary = None
    if args.metrics:
        from repro.obs.metrics import parse_prometheus

        with open(args.metrics, encoding="utf-8") as fh:
            text = fh.read()
        if str(args.metrics).endswith(".json"):
            samples = json.loads(text)["samples"]
        else:
            samples = parse_prometheus(text)
        metrics_summary = {}
        for sample in samples:
            labels = sample["labels"]
            key = sample["name"] if not labels else (
                sample["name"] + "{"
                + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}")
            # JSON histogram samples carry count/sum instead of a value
            metrics_summary[key] = sample.get("value", sample.get("sum"))
    if args.json:
        payload = {"journal": str(args.journal), "summary": summary}
        if metrics_summary is not None:
            payload["metrics"] = metrics_summary
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        ("runs", str(summary["runs"])),
        ("workloads", ", ".join(summary["workloads"])),
        ("policies", ", ".join(summary["policies"])),
        ("wall time", f"{summary['wall_seconds']:.2f}s"),
        ("instructions", f"{summary['instructions']:,}"),
    ]
    if summary["mix_core_runs"]:
        rows.append(("mix work",
                     f"{summary['mix_core_runs']} core-run(s) across "
                     f"{summary['mixes']} mix(es)"))
    ips = summary["instructions_per_second"]
    if ips is not None:
        rows.append(("throughput", f"{ips / 1000:.0f}k instr/s"))
    print(format_table(["field", "value"], rows, f"journal {args.journal}"))
    print(format_table(
        ["policy", "runs", "mean IPC"],
        [(p, str(d["runs"]),
          f"{d['mean_ipc']:.4f}" if d["mean_ipc"] is not None else "n/a")
         for p, d in summary["per_policy"].items()],
        "per policy",
    ))
    if metrics_summary:
        interesting = [
            (k, v) for k, v in sorted(metrics_summary.items())
            if not k.endswith("_bucket") and "_bucket{" not in k
        ]
        print(format_table(
            ["metric", "value"],
            [(k, f"{v:g}") for k, v in interesting],
            f"metrics {args.metrics}",
        ))
    return 0


def cmd_storage(args: argparse.Namespace) -> int:
    """`repro storage`: DRIPPER's Table III accounting."""
    bits = storage_breakdown_bits()
    rows = [(component, f"{b} bits", f"{b / 8 / 1024:.4f} KiB") for component, b in bits.items()]
    print(format_table(["component", "bits", "KiB"], rows, "DRIPPER storage (Table III)"))
    print(f"total: {storage_overhead_kib():.3f} KiB")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sampling_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sampling", type=_positive_int, default=None,
                       metavar="PHASES",
                       help="phase-sampled simulation: cluster each run's trace "
                            "into PHASES phases, simulate one representative "
                            "interval each, reconstruct the whole-trace "
                            "result with bootstrap confidence bounds")
        p.add_argument("--sampling-intervals", type=_positive_int, default=64,
                       metavar="N",
                       help="profiling resolution for --sampling: split the "
                            "measured region into N equal-instruction "
                            "intervals (default: 64)")
        p.add_argument("--sampling-seed", type=int, default=0, metavar="SEED",
                       help="seed for clustering init and the bootstrap "
                            "(sampled runs are bit-reproducible per seed)")

    def add_sim_args(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--workload", help="registry workload name")
        group.add_argument("--trace-file", help="native trace file to replay")
        p.add_argument("--prefetcher", default="berti",
                       choices=_PREFETCHERS)
        p.add_argument("--l2", default="none", choices=("none", "spp", "ipcp", "bop"))
        p.add_argument("--warmup", type=int, default=20_000)
        p.add_argument("--sim", type=int, default=60_000)
        p.add_argument("--large-pages", type=float, default=0.0,
                       help="fraction of 2MB-backed regions (0..1)")
        p.add_argument("--validate", action="store_true",
                       help="attach the runtime invariant checker to every run "
                            "(abort with a counter snapshot on violation)")
        add_sampling_args(p)

    def add_parallel_args(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group("execution")
        g.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="run grid cells on N worker processes (default: serial)")
        g.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="content-addressed result cache; unchanged cells are "
                            "served from disk instead of re-simulated")
        g.add_argument("--progress", action="store_true",
                       help="print live per-cell progress (with ETA and "
                            "throughput) to stderr as grid cells land")

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group("observability")
        g.add_argument("--timeline-out", metavar="PATH", default=None,
                       help="write the per-epoch timeline (CSV if PATH ends in .csv, else JSONL)")
        g.add_argument("--timeline-every", type=_positive_int, default=1, metavar="N",
                       help="sample every Nth epoch (default: every epoch)")
        g.add_argument("--journal", metavar="PATH", default=None,
                       help="append one JSONL run-journal record per run")
        g.add_argument("--profile", action="store_true",
                       help="sample the record kernel; print each section's "
                            "share of the samples over every run")
        g.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")
        g.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the end-of-command metrics snapshot "
                            "(Prometheus text; JSON when PATH ends in .json)")
        g.add_argument("--trace-out", metavar="PATH", default=None,
                       help="record spans (pack/drive/collect/"
                            "cache-write) and write a Chrome trace-event JSON "
                            "merging every process's spans")

    run_p = sub.add_parser("run", help="run one workload under one policy")
    add_sim_args(run_p)
    run_p.add_argument("--policy", default="dripper", choices=_POLICIES)
    add_obs_args(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run one workload under several policies")
    add_sim_args(cmp_p)
    cmp_p.add_argument("--policies", nargs="+", default=["discard", "permit", "dripper"],
                       choices=_POLICIES)
    add_parallel_args(cmp_p)
    add_obs_args(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    swp_p = sub.add_parser("sweep", help="sweep one hardware parameter over several workloads")
    swp_p.add_argument("--param", required=True,
                       choices=("stlb", "dtlb", "dram-latency", "epoch"),
                       help="which knob to sweep (epoch sweeps DRIPPER's epoch length)")
    swp_p.add_argument("--values", type=_positive_int, nargs="+", required=True,
                       help="sweep points (entries / cycles / instructions)")
    swp_p.add_argument("--workloads", nargs="+", required=True, metavar="NAME",
                       help="registry workload names")
    swp_p.add_argument("--policies", nargs="+", default=["permit", "dripper"],
                       choices=_POLICIES, help="policies compared against discard")
    swp_p.add_argument("--prefetcher", default="berti",
                       choices=_PREFETCHERS)
    swp_p.add_argument("--warmup", type=int, default=20_000)
    swp_p.add_argument("--sim", type=int, default=60_000)
    swp_p.add_argument("--validate", action="store_true",
                       help="attach the runtime invariant checker to every run")
    add_sampling_args(swp_p)
    add_parallel_args(swp_p)
    add_obs_args(swp_p)
    swp_p.set_defaults(func=cmd_sweep)

    ins_p = sub.add_parser("inspect", help="run a workload, then dump the filter's learned state")
    add_sim_args(ins_p)
    ins_p.add_argument("--policy", default="dripper", choices=_POLICIES)
    add_obs_args(ins_p)
    ins_p.set_defaults(func=cmd_inspect)

    mix_p = sub.add_parser(
        "mix",
        help="multi-core mix study (Figure 19 weighted speedups)",
        description="Run N eight-core mixes under each policy against a "
                    "shared LLC+DRAM and report the weighted-speedup "
                    "distribution over the first (baseline) policy.  "
                    "Isolation IPCs are content-addressed grid cells, so "
                    "--cache-dir dedupes them across mixes and invocations; "
                    "--jobs dispatches whole mixes to worker processes.",
    )
    mix_p.add_argument("--mixes", type=_positive_int, default=4, metavar="N",
                       help="number of mixes (the paper runs 300)")
    mix_p.add_argument("--cores", type=_positive_int, default=8,
                       help="cores per mix (default: 8, as in the paper)")
    mix_p.add_argument("--policies", nargs="+",
                       default=["discard", "permit", "dripper"],
                       choices=_POLICIES,
                       help="first policy is the normalisation baseline")
    mix_p.add_argument("--warmup", type=int, default=8_000)
    mix_p.add_argument("--sim", type=int, default=24_000)
    mix_p.add_argument("--seed", type=int, default=42,
                       help="mix-composition seed")
    mix_p.add_argument("--validate", action="store_true",
                       help="attach a runtime invariant checker to every core")
    add_parallel_args(mix_p)
    g = mix_p.add_argument_group("observability")
    g.add_argument("--journal", metavar="PATH", default=None,
                   help="append one JSONL run-journal record per core, "
                        "tagged with mix id + core index")
    g.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON on stdout")
    g.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write the end-of-command metrics snapshot "
                        "(Prometheus text; JSON when PATH ends in .json)")
    g.add_argument("--trace-out", metavar="PATH", default=None,
                   help="record spans and write a merged Chrome trace-event "
                        "JSON (mix-cell/mix-drive spans included)")
    mix_p.set_defaults(func=cmd_mix)

    wl_p = sub.add_parser("workloads", help="list registered workloads")
    wl_p.add_argument("--set", default="seen", choices=("seen", "unseen", "non-intensive"))
    wl_p.add_argument("--suite", default=None)
    wl_p.set_defaults(func=cmd_workloads)

    sub.add_parser("features", help="list MOKA's feature library").set_defaults(func=cmd_features)
    sub.add_parser("storage", help="DRIPPER storage accounting (Table III)").set_defaults(func=cmd_storage)

    snap_p = sub.add_parser("snapshot", help="materialise a registry workload as a trace file")
    snap_p.add_argument("--workload", required=True)
    snap_p.add_argument("--out", required=True)
    snap_p.add_argument("--instructions", type=int, default=100_000)
    snap_p.set_defaults(func=cmd_snapshot)

    val_p = sub.add_parser(
        "validate",
        help="run the differential/metamorphic validation suite",
        description="Differential validation: determinism, parallel-vs-serial, "
                    "discard-vs-source-suppression, epoch invariance, "
                    "packed-vs-generator, prefetch replay vs live, policy "
                    "lockstep vs solo, the sampled error bound and "
                    "determinism, mix packed-vs-generator, a full invariant "
                    "pass per (workload x policy), and mutation detection.  "
                    "Exits 1 if any check fails.",
    )
    val_p.add_argument("--workloads", nargs="+", default=["astar", "hmmer"],
                       metavar="NAME", help="registry workload names")
    val_p.add_argument("--policies", nargs="+", default=["discard", "permit", "dripper"],
                       choices=_POLICIES, help="policies the invariant pass covers")
    val_p.add_argument("--prefetcher", default="berti",
                       choices=_PREFETCHERS)
    val_p.add_argument("--warmup", type=int, default=2_000)
    val_p.add_argument("--sim", type=int, default=6_000)
    val_p.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized parallel-vs-serial fuzz")
    val_p.add_argument("--fuzz", type=_positive_int, default=4, metavar="N",
                       help="number of randomized cells in the parallel fuzz")
    val_p.add_argument("--jobs", type=_positive_int, default=2, metavar="N",
                       help="worker processes for the parallel leg of the fuzz")
    val_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")
    val_p.set_defaults(func=cmd_validate)

    st_p = sub.add_parser(
        "status",
        help="summarise a run journal (and an exported metrics snapshot)",
        description="Aggregate a JSONL run journal into run/workload/policy "
                    "counts, total wall time, simulation throughput, and "
                    "per-policy IPC; --metrics additionally folds in a "
                    "--metrics-out export (Prometheus text or JSON).",
    )
    st_p.add_argument("--journal", required=True, metavar="PATH",
                      help="JSONL run journal written by --journal")
    st_p.add_argument("--metrics", default=None, metavar="PATH",
                      help="metrics snapshot written by --metrics-out")
    st_p.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON on stdout")
    st_p.set_defaults(func=cmd_status)

    conv_p = sub.add_parser("convert", help="convert a ChampSim trace to the native format")
    conv_p.add_argument("--champsim", required=True)
    conv_p.add_argument("--out", required=True)
    conv_p.add_argument("--max-instructions", type=int, default=None)
    conv_p.set_defaults(func=cmd_convert)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (also exposed as the `repro` console script)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
