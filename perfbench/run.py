"""Run one benchmark workload and print its metrics as the last line (JSON).

    python3 perfbench/run.py --workload exhibits --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb,
ipc_rel_err, ci_coverage); ``--trace 1`` runs every operation once more
under the span tracer and prints the per-layer metrics instead.  Every
output of every operation is checked against ``perfbench/refs``; a mismatch
counts as a failed operation.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (temporary result caches, span dumps)
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

#: set-up is repeated this many times per run, spread over the timed loop,
#: and its median reported
SETUP_REPS = 7
#: every operation runs at least this many times, then operations keep
#: cycling until --seconds of operation time are used
MIN_REPS = 2


def setup_once(workload: str, seed: int) -> float:
    """Host seconds of a fresh interpreter doing the workload's set-up.

    Each repetition is a new process (``--setup-only``), so imports and the
    program's process-wide caches (workload registry, packs) are paid every
    time, exactly as before a workload's first timed operation.
    """
    start = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                    "--seed", str(seed), "--setup-only"], cwd=ROOT, check=True)
    return perf_counter() - start


def drive_counts() -> dict[str, float]:
    """``sim.drives`` so far, by mode."""
    from repro.obs.metrics import get_metrics

    series = get_metrics().snapshot().counters.get("sim.drives", {}).get("series", {})
    return {dict(key).get("mode", ""): value for key, value in series.items()}


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v - before.get(k, 0)}


def check(outputs: dict, expected: dict) -> int:
    """Number of outputs that are missing from or differ from ``expected``."""
    failed = 0
    for key, value in outputs.items():
        if expected.get(key) != value:
            failed += 1
            print(f"mismatch: {key}", file=sys.stderr)
    return failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import suite

    seed = suite.DEFAULT_SEED if args.seed is None else args.seed
    if args.workload not in suite.NAMES:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(suite.NAMES)}", file=sys.stderr)
        return 2
    bench = suite.make(args.workload, SCRATCH)
    if args.setup_only:
        bench.setup(seed)
        return 0

    setup_times = [] if args.trace else [setup_once(args.workload, seed)]
    bench.setup(seed)
    expected = bench.expected

    # ---- timed operations, telemetry off: cycle through the operations;
    # the remaining set-ups run in between, evenly spread over the loop
    operations = bench.operations()
    samples: dict[str, list[float]] = {name: [] for name, _ in operations}
    checked: list[dict] = []
    busy, count = 0.0, 0
    before = drive_counts()
    while busy < args.seconds or min(map(len, samples.values())) < MIN_REPS:
        if 0 < len(setup_times) < SETUP_REPS and \
                busy >= len(setup_times) * args.seconds / SETUP_REPS:
            setup_times.append(setup_once(args.workload, seed))
        name, operation = operations[count % len(operations)]
        start = perf_counter()
        outputs = operation()
        elapsed = perf_counter() - start
        samples[name].append(elapsed)
        busy += elapsed
        checked.append(outputs)
        count += 1
        if count == len(operations):
            drives = delta(drive_counts(), before)
    while 0 < len(setup_times) < SETUP_REPS:
        setup_times.append(setup_once(args.workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(statistics.median(times) for times in samples.values())

    traced_ok = True
    if args.trace:
        outputs, metrics, traced_ok = traced_run(bench, wall_s, drives, seed)
        checked.append(outputs)

    if expected is None:
        expected = bench.reference()
    attempted = sum(len(outputs) for outputs in checked)
    failed = sum(check(outputs, expected) for outputs in checked)

    if not args.trace:
        accuracy = bench.accuracy({k: v for outputs in checked for k, v in outputs.items()})
        if accuracy is None:
            # packed measures accuracy on its own sampled cells; a workload
            # without any re-measures the first sampling seed, untimed,
            # after its timed loop
            panel = suite.Sampled(suite.SAMPLING_SEEDS[:1])
            panel.setup(seed)
            _, panel_outputs = panel.job()
            attempted += len(panel_outputs)
            failed += check(panel_outputs, panel.expected)
            accuracy = panel.accuracy(panel_outputs)
        ipc_rel_err, ci_coverage = accuracy
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "ipc_rel_err": metric(ipc_rel_err, "ratio"),
            "ci_coverage": metric(ci_coverage, "ratio"),
        }
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{args.workload}: seed {seed}, {count} timed operations "
          f"({len(operations)} distinct), job {wall_s:.3f} s", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and traced_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(bench, wall_s: float, drives: dict, seed: int):
    """One more repetition under the span tracer; returns (outputs, metrics, ok)."""
    import suite
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    before = drive_counts()
    tracer.install()
    try:
        (_, outputs), traced_wall = tracer.root(bench.job)
    finally:
        tracer.uninstall()
    traced_drives = delta(drive_counts(), before)
    tracer.dump(OUT / f"trace-{bench.name}-{seed}.json")
    layer, residual = layer_metrics(tracer, traced_wall, wall_s, traced_drives)
    errors = bench.cell_errors(outputs)
    for trace in suite.LONG_TRACES:
        for policy in suite.LONG_POLICIES:
            value = errors.get(f"{trace}/{policy}", 0.0)
            layer[f"experiments.sampling.rel_err.{trace}.{policy}"] = {
                "value": value, "unit": "ratio"}
    ok = True
    if traced_drives != drives or traced_drives.get("stepwise"):
        print(f"traced drives {traced_drives} differ from untraced {drives}",
              file=sys.stderr)
        ok = False
    if residual < 0:
        print(f"named self times exceed the traced wall by {-residual:.4f} s",
              file=sys.stderr)
        ok = False
    return outputs, layer, ok


if __name__ == "__main__":
    sys.exit(main())
