"""Steadiness report: run one workload N times and summarise every metric.

    python3 perfbench/steady.py --workload packed --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload exhibits --runs 5 --same-seed

Each run is a separate ``perfbench/run.py`` process (seeds first-seed,
first-seed+1, ... unless ``--same-seed``).  For every metric the report
gives the median, the quartiles (``statistics.quantiles(n=4)``), the
quartile spread as a share of the median, and the min-max range, followed
by the host context: CPU count, load average, and the share of CPU time
stolen by the hypervisor (``/proc/stat``) over the whole series.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies since boot from /proc/stat, if readable."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(v) for v in first[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="give every run the first seed instead of a new one")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per-run --seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    load_before, ticks_before = os.getloadavg(), cpu_ticks()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = incorrect = 0
    for i in range(args.runs):
        seed = args.first_seed if args.same_seed else args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"run {i} (seed {seed}) exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        incorrect += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"run {i} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    load_after, ticks_after = os.getloadavg(), cpu_ticks()

    print(f"\n{args.workload}: {args.runs} runs, {attempted} operations attempted, "
          f"{failed} failed, {incorrect} runs not correct")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}"
          f" {'min':>12s} {'max':>12s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (series[0],) * 3)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:44s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}"
              f" {min(series):12.6g} {max(series):12.6g}  {units[name]}")
    print(f"\nhost: {os.cpu_count()} CPUs; load average {load_before[0]:.2f} before, "
          f"{load_after[0]:.2f} after")
    if ticks_before and ticks_after:
        steal = ticks_after[0] - ticks_before[0]
        total = ticks_after[1] - ticks_before[1]
        print(f"steal: {steal / total:.2%} of CPU time during the series"
              if total else "steal: no ticks elapsed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
