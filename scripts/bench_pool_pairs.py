"""Race two checkouts on small pooled grids in alternating pairs; write a BENCH file.

    python3 scripts/bench_pool_pairs.py --parent PARENT_CHECKOUT --change . \\
        --case compare:astar --case policies:astar --case policies:astar+hmmer \\
        --case policies:omnetpp --warmup 20000 --sim 60000 --jobs 2 --pairs 10 \\
        --out BENCH_0013.json

A ``compare:W`` case runs ``repro compare --workload W --policies discard
permit --jobs J --json`` and times the whole process, start-up included.
A ``policies:W1+W2`` case calls ``run_policies`` over those workloads with
discard, permit and DRIPPER at ``jobs=J`` and times the call.  Each run is a
fresh interpreter with the checkout's ``src/`` on ``PYTHONPATH``; which side
goes first swaps every pair, so slow host drift charges both sides alike.
The race fails unless every run of a case printed the same results.  The
claim rule is ``bench_pairs``' (lower wall seconds is better).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from bench_pairs import alternate, provenance, spread, summarise

#: one run_policies call; prints its wall seconds and its results
POLICIES = r"""
import json, sys
from time import perf_counter
from repro.experiments.runner import RunSpec, run_policies
from repro.workloads import by_name

names, warmup, sim, jobs = sys.argv[1].split("+"), *map(int, sys.argv[2:5])
spec = RunSpec(warmup_instructions=warmup, sim_instructions=sim)
start = perf_counter()
out = run_policies([by_name(n) for n in names], ["discard", "permit", "dripper"],
                   base_spec=spec, jobs=jobs)
wall = perf_counter() - start
print(json.dumps({"wall_s": wall,
                  "results": {p: [r.ipc for r in rs] for p, rs in out.items()}}))
"""


def run(checkout: Path, case: str, warmup: int, sim: int, jobs: int) -> tuple[float, str]:
    """One run of ``case`` in ``checkout``: (wall seconds, its results as JSON)."""
    kind, workloads = case.split(":")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    if kind == "compare":
        argv = ["-m", "repro", "compare", "--workload", workloads, "--policies", "discard",
                "permit", "--warmup", str(warmup), "--sim", str(sim), "--jobs", str(jobs),
                "--json"]
    elif kind == "policies":
        argv = ["-c", POLICIES, workloads, str(warmup), str(sim), str(jobs)]
    else:
        raise SystemExit(f"unknown case kind {kind!r} (compare or policies)")
    start = perf_counter()
    out = subprocess.run([sys.executable, *argv], cwd=checkout, env=env, check=True,
                         capture_output=True, text=True).stdout
    wall = perf_counter() - start
    doc = json.loads(out)
    if kind == "compare":
        return wall, json.dumps(doc["runs"], sort_keys=True)
    return doc["wall_s"], json.dumps(doc["results"], sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--case", action="append", required=True)
    parser.add_argument("--warmup", type=int, default=20_000)
    parser.add_argument("--sim", type=int, default=60_000)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cases = {}
    for case in args.case:
        outputs = set()

        def one(side: str, pair: int, case: str = case) -> float:
            seconds, output = run(sides[side], case, args.warmup, args.sim, args.jobs)
            outputs.add(output)
            print(f"{case} pair {pair} {side}: {seconds:.2f} s", file=sys.stderr)
            return seconds

        wall = alternate(args.pairs, one)
        if len(outputs) != 1:
            raise SystemExit(f"{case}: results differ across runs")
        race = summarise(wall["parent"], wall["change"])
        cases[case] = {"wall_s": race,
                       "wall_s_quartiles": {side: spread(v) for side, v in wall.items()}}
        print(f"{case}: parent {race['parent_median']:.2f} s, change "
              f"{race['change_median']:.2f} s, change faster in {race['wins']}/{args.pairs}")
    doc = {
        "benchmark": "pool-pairs",
        "runner": (f"python3 scripts/bench_pool_pairs.py --parent PARENT_CHECKOUT --change . "
                   + " ".join(f"--case {c}" for c in args.case)
                   + f" --warmup {args.warmup} --sim {args.sim} --jobs {args.jobs} "
                   f"--pairs {args.pairs} --out {args.out.name}"),
        **provenance(sides),
        "rule": "change wins >= 9 of 10 pairs and median gap > parent inter-quartile range",
        "cases": cases,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
