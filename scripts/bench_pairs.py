"""Race two checkouts on one benchmark workload in alternating pairs; write a BENCH file.

    python3 scripts/bench_pairs.py --parent PARENT_CHECKOUT --change . \\
        --workload exhibits --seeds 1 29 --pairs 10 --out BENCH_0009.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds 45
--trace 0`` once in each checkout, in a fresh interpreter, swapping which
side goes first every pair so slow host drift charges both sides alike.
Every run checks its outputs against the recorded references
(``perfbench/refs``), so a run that reports ``correct: false`` or any
failed operation fails the whole race.

The claim rule on the chosen metric (lower is better): the change must win
at least 9 of 10 pairs, and its median must beat the parent's by more than
the parent's inter-quartile spread.  ``--traced`` adds one ``--trace 1`` run
per side on the first seed, recording the per-layer metrics that show where
the difference went.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: per-layer metrics kept from the traced runs
LAYERS = (
    "cpu.drives.generator", "cpu.drives.fused", "prefetch.on_access_calls",
    "prefetch.on_access_s", "vm.translate_s", "mem.access_s", "cpu.drive_self_s",
    "cpu.build_s", "obs.traced_wall_s",
)


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``; returns its final JSON line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        raise SystemExit(f"{checkout}: seed {seed} failed {doc['failed']} of "
                         f"{doc['attempted']} operations")
    return doc


def git_rev(checkout: Path, rev: str) -> str:
    """``git rev-parse rev`` in ``checkout`` ("" outside a git work tree)."""
    out = subprocess.run(["git", "rev-parse", rev], cwd=checkout,
                         capture_output=True, text=True)
    return out.stdout.strip()


def summarise(parent: list[float], change: list[float]) -> dict:
    """Medians, parent quartiles, wins and the claim verdict of one seed's pairs."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    wins = sum(c < p for p, c in zip(parent, change))
    return {
        "pairs": [{"parent": p, "change": c} for p, c in zip(parent, change)],
        "parent_median": parent_median,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": change_median,
        "change_min": min(change),
        "change_max": max(change),
        "wins": wins,
        "median_gap": parent_median - change_median,
        "parent_iqr": q3 - q1,
        "claim_holds": wins >= 0.9 * len(parent) and parent_median - change_median > q3 - q1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", default="exhibits")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 29])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--metric", default="wall_s")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc: dict = {
        "benchmark": f"{args.workload}-pairs",
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                    f"--seconds {args.seconds:g} --trace 0"),
        "runner": (f"python3 scripts/bench_pairs.py --parent PARENT_CHECKOUT --change . "
                   f"--workload {args.workload} --seeds {' '.join(map(str, args.seeds))} "
                   f"--pairs {args.pairs}{' --traced' if args.traced else ''} "
                   f"--out {args.out.name}"),
        # the src/ tree hashes identify the simulator each side ran (a
        # commit with the same program has the same ``git rev-parse C:src``)
        "parent_sha": git_rev(sides["parent"], "HEAD"),
        "parent_src_tree": git_rev(sides["parent"], "HEAD:src"),
        "change_src_tree": git_rev(sides["change"], "HEAD:src"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "metric": args.metric,
        "rule": "change wins >= 9 of 10 pairs and median gap > parent inter-quartile range",
        "seeds": {},
    }
    for seed in args.seeds:
        values: dict[str, list[float]] = {"parent": [], "change": []}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(sides[side], args.workload, seed, args.seconds, 0)
                values[side].append(result["metrics"][args.metric]["value"])
                runs[side].append({name: m["value"] for name, m in result["metrics"].items()})
                print(f"seed {seed} pair {pair} {side}: "
                      f"{args.metric} {values[side][-1]:.3f}", file=sys.stderr)
        entry = summarise(values["parent"], values["change"])
        entry["runs"] = runs
        doc["seeds"][str(seed)] = entry
    if args.traced:
        seed = args.seeds[0]
        doc["traced"] = {"seed": seed}
        for side, checkout in sides.items():
            metrics = run(checkout, args.workload, seed, args.seconds, 1)["metrics"]
            doc["traced"][side] = {name: metrics[name]["value"] for name in LAYERS
                                   if name in metrics}
    doc["equality"] = ("every run above reported correct=true with 0 failed operations: "
                       "all outputs bit-identical to perfbench/refs")
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for seed, entry in doc["seeds"].items():
        print(f"seed {seed}: parent {entry['parent_median']:.3f} "
              f"[{entry['parent_q1']:.3f}, {entry['parent_q3']:.3f}], change "
              f"{entry['change_median']:.3f}, wins {entry['wins']}/{args.pairs}, "
              f"claim {'holds' if entry['claim_holds'] else 'FAILS'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
