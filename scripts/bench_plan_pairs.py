"""Time ``plan_phases`` cold and warm in two checkouts, alternating; add a table to a BENCH file.

    python3 scripts/bench_plan_pairs.py --parent PARENT_CHECKOUT --change . \\
        --workload mcf --warmup 200000 --sim 2000000 --pairs 5 --out BENCH_0015.json

Each run packs the window in a fresh interpreter with the checkout's
``src/`` on ``PYTHONPATH`` (untimed), then times the first ``plan_phases``
call, which builds the pack's profile index and imports whatever the
profile needs (the cold plan), and the best of five further calls on the
same pack (the warm plan).  Sides alternate which goes first every pair.
The sampling knobs are ``BENCH_0008.json``'s (64 intervals, 8 phases,
``warmup_fraction`` 0.5, seed 0).  Every run of both sides must produce the
same plan, or the race fails.  The table is written under ``plan_phases``
into ``--out``, keeping whatever the file already holds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import alternate, provenance, spread

#: one run, executed in the checkout under test; prints one JSON line
RUN = r"""
import json, sys
from time import perf_counter
from repro.experiments.sampling import SamplingConfig, plan_phases
from repro.workloads.packed import get_packed
from repro.workloads.registry import by_name

args = json.loads(sys.argv[1])
packed = get_packed(by_name(args["workload"]), args["warmup"], args["sim"])
sampling = SamplingConfig(intervals=64, phases=8, warmup_fraction=0.5, seed=0)
warm = []
for _ in range(6):
    start = perf_counter()
    plan = plan_phases(packed, args["warmup"], args["sim"], sampling)
    warm.append(perf_counter() - start)
print(json.dumps({
    "records": len(packed), "cold_s": warm[0], "warm_s": min(warm[1:]),
    "numpy_imported": "numpy" in sys.modules,
    "plan": [plan.starts, plan.assignment, [p.representative for p in plan.phases]],
}))
"""


def run(checkout: Path, params: dict) -> dict:
    """One cold + warm timing in a fresh interpreter in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", RUN, json.dumps(params)],
                         cwd=checkout, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", default="mcf")
    parser.add_argument("--warmup", type=int, default=200_000)
    parser.add_argument("--sim", type=int, default=2_000_000)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    params = {"workload": args.workload, "warmup": args.warmup, "sim": args.sim}

    def one(side: str, pair: int) -> dict:
        r = run(sides[side], params)
        print(f"pair {pair} {side}: cold {r['cold_s']:.3f} s, warm {r['warm_s']:.4f} s",
              file=sys.stderr)
        return r

    runs = alternate(args.pairs, one)
    plans = {json.dumps(r.pop("plan")) for rs in runs.values() for r in rs}
    if len(plans) != 1:
        raise SystemExit("plans differ across runs")
    table = {
        "runner": (f"python3 scripts/bench_plan_pairs.py --parent PARENT_CHECKOUT --change . "
                   f"--workload {args.workload} --warmup {args.warmup} --sim {args.sim} "
                   f"--pairs {args.pairs} --out {args.out.name}"),
        "window": {**params, "records": runs["change"][0]["records"], "intervals": 64,
                   "phases": 8, "warmup_fraction": 0.5, "seed": 0},
        **provenance(sides),
        "cold_s": {side: spread([r["cold_s"] for r in rs]) for side, rs in runs.items()},
        "warm_s": {side: spread([r["warm_s"] for r in rs]) for side, rs in runs.items()},
        "numpy_imported": {side: any(r["numpy_imported"] for r in rs)
                           for side, rs in runs.items()},
        "equality": f"all {2 * args.pairs} runs produced the same plan",
        "runs": runs,
    }
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["plan_phases"] = table
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for side in sides:
        print(f"{side}: cold median {table['cold_s'][side]['median']:.3f} s, warm median "
              f"{table['warm_s'][side]['median']:.4f} s, numpy imported "
              f"{table['numpy_imported'][side]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
