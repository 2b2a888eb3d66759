"""scripts/bench_pool_pairs.py: each case kind runs and reports its results."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))  # the script imports bench_pairs
spec = importlib.util.spec_from_file_location(
    "bench_pool_pairs", REPO / "scripts" / "bench_pool_pairs.py")
bench_pool_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pool_pairs)


@pytest.mark.parametrize("case", ["compare:astar", "policies:astar"])
def test_case_reports_wall_and_results(case):
    seconds, output = bench_pool_pairs.run(REPO, case, 500, 1500, 1)
    assert seconds > 0
    assert json.loads(output)


def test_unknown_case_kind_is_rejected():
    with pytest.raises(SystemExit, match="unknown case kind"):
        bench_pool_pairs.run(REPO, "sweep:astar", 500, 1500, 1)
