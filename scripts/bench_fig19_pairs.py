"""Race two checkouts on one pool-driven Fig. 19 grid in alternating pairs; write a BENCH file.

    python3 scripts/bench_fig19_pairs.py --parent PARENT_CHECKOUT --change . \\
        --n-mixes 6 --cores 8 --warmup 1000 --sim 3000 \\
        --policies discard dripper --jobs 2 --pairs 10 --out BENCH_0012.json

Each run calls ``fig19_multicore`` once in a fresh interpreter with the
checkout's ``src/`` on ``PYTHONPATH``, swapping which side goes first every
pair so slow host drift charges both sides alike.  A run reports the wall
seconds of the call, the peak RSS of the calling process and of its
largest worker (``RUSAGE_SELF``/``RUSAGE_CHILDREN``; the kernel reports the
peak of the largest reaped child, not a sum over workers), the child processes
still alive after the call returned, and a SHA-256 of the figure's output;
the race fails unless every run of both sides produced the same digest.

The claim rule is ``bench_pairs``' (lower wall seconds is better): the
change must be faster in at least 9 of 10 pairs and its median must beat
the parent's by more than the parent's inter-quartile spread.  The file
also records the same rule with the sides' roles swapped (the parent
faster in 9 of 10 pairs, by more than its own inter-quartile spread), the
bar for keeping what the change removes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import alternate, provenance, spread, summarise

#: one run, executed in the checkout under test; prints one JSON line
RUN = r"""
import hashlib, json, os, resource, sys
from pathlib import Path
from time import perf_counter
from repro.experiments.figures import fig19_multicore

args = json.loads(sys.argv[1])
start = perf_counter()
out = fig19_multicore(args["n_mixes"], args["cores"], args["warmup"], args["sim"],
                      args["seed"], policies=tuple(args["policies"]), jobs=args["jobs"])
wall = perf_counter() - start
me = os.getpid()
children = []
for stat in Path("/proc").glob("[0-9]*/stat"):
    try:
        text = stat.read_text()
    except OSError:
        continue
    if int(text[text.rindex(")") + 2:].split()[1]) == me:
        children.append(text[text.index("(") + 1:text.rindex(")")])
print(json.dumps({
    "wall_s": wall,
    "self_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    "children_left": children,
    "digest": hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest(),
}))
"""


def run(checkout: Path, params: dict) -> dict:
    """One ``fig19_multicore`` call in a fresh interpreter in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", RUN, json.dumps(params)],
                         cwd=checkout, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--n-mixes", type=int, default=6)
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--warmup", type=int, default=1_000)
    parser.add_argument("--sim", type=int, default=3_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--policies", nargs="+", default=["discard", "dripper"])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    params = {"n_mixes": args.n_mixes, "cores": args.cores, "warmup": args.warmup,
              "sim": args.sim, "seed": args.seed, "policies": args.policies,
              "jobs": args.jobs}

    def one(side: str, pair: int) -> dict:
        result = run(sides[side], params)
        print(f"pair {pair} {side}: {result['wall_s']:.2f} s", file=sys.stderr)
        return result

    runs = alternate(args.pairs, one)
    digests = {r["digest"] for side in runs.values() for r in side}
    if len(digests) != 1:
        raise SystemExit(f"outputs differ across runs: {sorted(digests)}")
    wall = {side: [r["wall_s"] for r in rs] for side, rs in runs.items()}
    race = summarise(wall["parent"], wall["change"])
    parent_wins = sum(p < c for p, c in zip(wall["parent"], wall["change"]))
    doc = {
        "benchmark": "fig19-pool-pairs",
        "call": (f"fig19_multicore({args.n_mixes}, {args.cores}, {args.warmup}, "
                 f"{args.sim}, {args.seed}, policies={tuple(args.policies)!r}, "
                 f"jobs={args.jobs})"),
        "runner": (f"python3 scripts/bench_fig19_pairs.py --parent PARENT_CHECKOUT "
                   f"--change . --n-mixes {args.n_mixes} --cores {args.cores} "
                   f"--warmup {args.warmup} --sim {args.sim} --seed {args.seed} "
                   f"--policies {' '.join(args.policies)} --jobs {args.jobs} "
                   f"--pairs {args.pairs} --out {args.out.name}"),
        **provenance(sides),
        "rule": "change wins >= 9 of 10 pairs and median gap > parent inter-quartile range",
        "wall_s": race,
        "wall_s_quartiles": {side: spread(values) for side, values in wall.items()},
        "parent_wins": parent_wins,
        "parent_claim_holds": (parent_wins >= 0.9 * args.pairs
                               and -race["median_gap"] > race["parent_iqr"]),
        "peak_rss_mb": {
            side: {key: statistics.median(r[key] for r in rs)
                   for key in ("self_peak_rss_mb", "worker_peak_rss_mb")}
            for side, rs in runs.items()
        },
        "children_left": {side: sorted({name for r in rs for name in r["children_left"]})
                          for side, rs in runs.items()},
        "equality": f"all {2 * args.pairs} runs produced output digest {digests.pop()}",
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for side in sides:
        rss = doc["peak_rss_mb"][side]
        print(f"{side}: median {race[side + '_median']:.2f} s, rss self "
              f"{rss['self_peak_rss_mb']:.0f} MB + worker {rss['worker_peak_rss_mb']:.0f} MB, "
              f"children left {doc['children_left'][side] or 'none'}")
    print(f"parent IQR [{race['parent_q1']:.2f}, {race['parent_q3']:.2f}]; change wins "
          f"{race['wins']}/{args.pairs} (claim {'holds' if race['claim_holds'] else 'fails'}), "
          f"parent wins {parent_wins}/{args.pairs} (claim "
          f"{'holds' if doc['parent_claim_holds'] else 'fails'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
