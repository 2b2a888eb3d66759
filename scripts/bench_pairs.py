"""Race two checkouts on one benchmark workload in alternating pairs; write a BENCH file.

    python3 scripts/bench_pairs.py --parent PARENT_CHECKOUT --change . \\
        --workload exhibits --seeds 1 29 --pairs 10 --out BENCH_0009.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds 45
--trace 0`` once in each checkout, in a fresh interpreter, swapping which
side goes first every pair so slow host drift charges both sides alike.
Every run checks its outputs against the recorded references
(``perfbench/refs``), so a run that reports ``correct: false`` or any
failed operation fails the whole race.

The claim rule on the chosen metric, in the direction ``BENCHMARK.json``
declares for it (``end_to_end[].better``): the change must win at least 9
of 10 pairs, and its median must beat the parent's by more than the
parent's inter-quartile spread.  For every end-to-end metric the file also
records each side's median and quartiles per seed, and how much worse the
change's median is than the parent's relative to the metric's bound — the
no-regression table.

Before the race, one untimed in-process audit per side runs the workload's
pass (every operation once) a few times and records, per pass, the seconds
the cycle collector ran (``gc.callbacks``) and the objects it freed, i.e.
the cyclic garbage the pass left behind.  ``--traced`` adds one ``--trace
1`` run per side on the first seed, recording the per-layer metrics that
show where the difference went.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, TypeVar

#: per-layer metrics kept from the traced runs
LAYERS = (
    "cpu.drives.generator", "cpu.drives.fused", "prefetch.on_access_calls",
    "prefetch.on_access_s", "vm.translate_s", "mem.access_s", "cpu.drive_self_s",
    "cpu.build_s", "obs.traced_wall_s",
)
#: passes of the untimed collector audit (after the workload's set-up)
AUDIT_PASSES = 3

T = TypeVar("T")


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


def audit(checkout: Path, workload: str, seed: int) -> dict:
    """The collector audit of ``checkout``, in a fresh interpreter there."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--audit-only",
         "--workload", workload, "--seeds", str(seed)],
        cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def audit_here(workload: str, seed: int) -> dict:
    """Collector seconds and freed objects per pass of the current checkout."""
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import suite

    with tempfile.TemporaryDirectory() as scratch:
        bench = suite.make(workload, Path(scratch))
        bench.setup(seed)
        gc.collect()
        started = [0.0]
        totals = {"collector_s": 0.0, "cyclic_objects": 0}

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                started[0] = perf_counter()
            else:
                totals["collector_s"] += perf_counter() - started[0]
                totals["cyclic_objects"] += info["collected"]

        passes = []
        gc.callbacks.append(on_gc)
        try:
            for _ in range(AUDIT_PASSES):
                totals.update(collector_s=0.0, cyclic_objects=0)
                bench.job()
                gc.collect()  # garbage the pass left for a later collection
                passes.append(dict(totals))
        finally:
            gc.callbacks.remove(on_gc)
    return {
        "passes": passes,
        "collector_s_median": statistics.median(p["collector_s"] for p in passes),
        "cyclic_objects_median": statistics.median(p["cyclic_objects"] for p in passes),
    }


def git_rev(checkout: Path, rev: str) -> str:
    """``git rev-parse rev`` in ``checkout`` ("" outside a git work tree)."""
    out = subprocess.run(["git", "rev-parse", rev], cwd=checkout,
                         capture_output=True, text=True)
    return out.stdout.strip()


def src_tree(checkout: Path) -> str:
    """Git tree hash of ``checkout``'s src/ as it is on disk, edits included.

    Uses a throwaway index, so the checkout's own index is left alone; a
    clean checkout gives the same hash as ``git rev-parse HEAD:src``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        for cmd in (["git", "read-tree", "HEAD"], ["git", "add", "-A", "src"]):
            if subprocess.run(cmd, cwd=checkout, env=env, capture_output=True).returncode:
                return ""
        out = subprocess.run(["git", "write-tree", "--prefix=src/"], cwd=checkout,
                             env=env, capture_output=True, text=True)
    return out.stdout.strip()


def provenance(sides: dict[str, Path]) -> dict:
    """The BENCH header naming what each side ran, and on what host.

    The src/ tree hashes identify the simulator each side ran (a commit
    with the same program has the same ``git rev-parse C:src``).
    """
    return {
        "parent_sha": git_rev(sides["parent"], "HEAD"),
        "parent_src_tree": src_tree(sides["parent"]),
        "change_src_tree": src_tree(sides["change"]),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def alternate(pairs: int, run_side: Callable[[str, int], T]) -> dict[str, list[T]]:
    """Each side's ``run_side(side, pair)`` results over ``pairs`` pairs.

    Which side goes first swaps every pair, so slow host drift charges both
    sides alike.
    """
    runs: dict[str, list[T]] = {"parent": [], "change": []}
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            runs[side].append(run_side(side, pair))
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Medians, parent quartiles, wins and the claim verdict of one seed's pairs."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(parent, change))
    gap = sign * (p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    return {
        "better": better,
        "pairs": [{"parent": pv, "change": cv} for pv, cv in zip(parent, change)],
        "parent_median": p["median"],
        "parent_q1": p["q1"],
        "parent_q3": p["q3"],
        "change_median": c["median"],
        "change_min": min(change),
        "change_max": max(change),
        "wins": wins,
        "median_gap": gap,
        "parent_iqr": iqr,
        "claim_holds": wins >= 0.9 * len(parent) and gap > iqr,
    }


def no_regression(runs: dict[str, list[dict]], end_to_end: dict[str, dict]) -> dict:
    """Per end-to-end metric: each side's spread and the change's relative loss."""
    table = {}
    for name, declared in end_to_end.items():
        p = spread([r[name] for r in runs["parent"]])
        c = spread([r[name] for r in runs["change"]])
        sign = 1.0 if declared["better"] == "lower" else -1.0
        # positive: the change's median is worse, as a share of the parent's
        loss = sign * (c["median"] - p["median"]) / (abs(p["median"]) or 1.0) + 0.0
        table[name] = {"better": declared["better"], "bound": declared["bound"],
                       "parent": p, "change": c, "worse_by": loss,
                       "within_bound": loss <= declared["bound"]}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", default="exhibits")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 29])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--metric", default="wall_s")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--audit-only", action="store_true",
                        help="print the collector audit of the current directory and exit")
    args = parser.parse_args(argv)
    if args.audit_only:
        print(json.dumps(audit_here(args.workload, args.seeds[0])))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    if args.metric not in end_to_end:
        parser.error(f"--metric must be one of {', '.join(end_to_end)}")
    better = end_to_end[args.metric]["better"]
    doc: dict = {
        "benchmark": f"{args.workload}-pairs",
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                    f"--seconds {args.seconds:g} --trace 0"),
        "runner": (f"python3 scripts/bench_pairs.py --parent PARENT_CHECKOUT --change . "
                   f"--workload {args.workload} --seeds {' '.join(map(str, args.seeds))} "
                   f"--pairs {args.pairs} --metric {args.metric}"
                   f"{' --traced' if args.traced else ''} --out {args.out.name}"),
        **provenance(sides),
        "metric": args.metric,
        "better": better,
        "rule": "change wins >= 9 of 10 pairs and median gap > parent inter-quartile range",
        "audit": {"seed": args.seeds[0],
                  **{side: audit(checkout, args.workload, args.seeds[0])
                     for side, checkout in sides.items()}},
        "seeds": {},
    }
    for seed in args.seeds:
        def one(side: str, pair: int, seed: int = seed) -> dict[str, float]:
            result = run(sides[side], args.workload, seed, args.seconds, 0)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"seed {seed} pair {pair} {side}: "
                  f"{args.metric} {metrics[args.metric]:.3f}", file=sys.stderr)
            return metrics

        runs = alternate(args.pairs, one)
        values = {side: [r[args.metric] for r in rs] for side, rs in runs.items()}
        entry = summarise(values["parent"], values["change"], better)
        entry["end_to_end"] = no_regression(runs, end_to_end)
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
    for side in sides:
        a = doc["audit"][side]
        print(f"audit {side}: collector {a['collector_s_median']:.3f} s, "
              f"{a['cyclic_objects_median']:.0f} cyclic objects per pass")
    for seed, entry in doc["seeds"].items():
        print(f"seed {seed}: parent {entry['parent_median']:.3f} "
              f"[{entry['parent_q1']:.3f}, {entry['parent_q3']:.3f}], change "
              f"{entry['change_median']:.3f}, wins {entry['wins']}/{args.pairs}, "
              f"claim {'holds' if entry['claim_holds'] else 'FAILS'}")
        for name, row in entry["end_to_end"].items():
            print(f"  {name}: parent {row['parent']['median']:.4g} "
                  f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}], change "
                  f"{row['change']['median']:.4g} [{row['change']['q1']:.4g}, "
                  f"{row['change']['q3']:.4g}], worse by {row['worse_by']:+.1%} "
                  f"(bound {row['bound']:.0%}){'' if row['within_bound'] else ' EXCEEDED'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
