"""Recompute the benchmark's expected results and print how they differ.

    python3 perfbench/refs.py                      # every file, exhibits seeds 0-31
    python3 perfbench/refs.py --workload longtrace
    python3 perfbench/refs.py --workload exhibits --seeds 1 29 --write

There is one file per reference set: ``exhibits`` and the three parts of
the ``packed`` workload (``longtrace``, ``sampled``, ``mixes``).  Each
set's outputs are computed twice, by the timed path and by an
independent one (generator loop vs packed kernel; sampled cells are simply
rerun), and any difference between the two is printed first.  Then the
fresh outputs are diffed against ``perfbench/refs/<workload>.json``.
Nothing is written unless ``--write`` is given, and never when the two
paths disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import suite  # noqa: E402

SCRATCH = HERE.parent / ".perfbench_tmp"


def diff(label: str, fresh: dict, recorded: dict) -> int:
    """Print every key whose value differs; returns the number of differences."""
    count = 0
    for key in sorted(set(fresh) | set(recorded)):
        a, b = recorded.get(key), fresh.get(key)
        if a == b:
            continue
        count += 1
        if a is None or b is None:
            print(f"{label} {key}: {'new' if a is None else 'gone'}")
        elif isinstance(a, dict) and isinstance(b, dict):
            changed = {f: (a.get(f), b.get(f)) for f in set(a) | set(b) if a.get(f) != b.get(f)}
            print(f"{label} {key}: {changed}")
        else:
            print(f"{label} {key}: {a!r} -> {b!r}")
    return count


def compute(workload: str, seed: int) -> tuple[dict, int]:
    """(outputs to record, differences between the timed and independent paths)."""
    bench = suite.make(workload, SCRATCH)
    bench.setup(seed)
    timed = bench.job()[1]
    independent = bench.reference()
    mismatches = diff(f"[{workload} seed {seed}] timed vs independent:", timed, independent)
    # longtrace and mixes record the generator loop, exhibits the default path
    return (independent if workload in ("longtrace", "mixes") else timed), mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(suite.REF_FILES),
                        choices=suite.REF_FILES)
    parser.add_argument("--seeds", nargs="*", type=int, default=list(range(32)),
                        help="exhibits seeds to record (the other workloads ignore the seed)")
    parser.add_argument("--write", action="store_true",
                        help="overwrite the recorded files with the fresh outputs")
    args = parser.parse_args(argv)

    status = 0
    # sampled accuracy is measured against the longtrace file, so record it first
    for workload in sorted(args.workload, key=suite.REF_FILES.index):
        recorded = suite.load_refs(workload)
        if workload == "exhibits":
            seeds = recorded.get("seeds", {})
            fresh_seeds, mismatches, changes = dict(seeds), 0, 0
            for seed in args.seeds:
                fresh, bad = compute(workload, seed)
                mismatches += bad
                changes += diff(f"[exhibits seed {seed}] recorded vs fresh:",
                                fresh, seeds.get(str(seed), {}))
                fresh_seeds[str(seed)] = fresh
            payload = {"scale": suite.EXHIBIT_SCALE, "prefetcher": suite.PREFETCHER,
                       "seeds": dict(sorted(fresh_seeds.items(), key=lambda kv: int(kv[0])))}
        else:
            fresh, mismatches = compute(workload, suite.DEFAULT_SEED)
            key = "outputs" if workload == "mixes" else "cells"
            changes = diff(f"[{workload}] recorded vs fresh:", fresh, recorded.get(key, {}))
            payload = {"inputs": describe(workload), key: fresh}
        print(f"{workload}: {mismatches} timed/independent mismatches, "
              f"{changes} differences from the recorded file")
        if mismatches:
            status = 1
        elif args.write and changes:
            path = suite.REFS / f"{workload}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path.relative_to(HERE.parent)}")
    return status


def describe(workload: str) -> dict:
    """The inputs a recorded file was made from (for a human reader)."""
    if workload == "mixes":
        return {"prefetcher": suite.PREFETCHER, "policies": list(suite.MIX_POLICIES), **suite.MIX}
    inputs = {"prefetcher": suite.PREFETCHER, "traces": list(suite.LONG_TRACES),
              "policies": list(suite.LONG_POLICIES),
              "warmup_instructions": suite.LONG_WARMUP, "sim_instructions": suite.LONG_SIM}
    if workload == "sampled":
        inputs["sampling_seeds"] = list(suite.SAMPLING_SEEDS)
    return inputs


if __name__ == "__main__":
    sys.exit(main())
