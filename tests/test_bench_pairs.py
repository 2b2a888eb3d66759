"""scripts/bench_pairs.py: claim direction and the no-regression table."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_lower_is_better_claim():
    entry = bench_pairs.summarise([10.0, 11.0, 12.0, 13.0], [5.0, 6.0, 7.0, 8.0])
    assert entry["wins"] == 4
    assert entry["median_gap"] == 5.0
    assert entry["claim_holds"]


def test_higher_is_better_claim_flips():
    parent, change = [0.5, 0.5, 0.6, 0.6], [0.9, 0.9, 0.9, 0.9]
    assert bench_pairs.summarise(parent, change, "higher")["claim_holds"]
    lower = bench_pairs.summarise(parent, change, "lower")
    assert lower["wins"] == 0 and not lower["claim_holds"]


def test_no_regression_uses_direction_and_bound():
    runs = {"parent": [{"wall_s": 4.0, "ci_coverage": 0.25}] * 3,
            "change": [{"wall_s": 5.0, "ci_coverage": 0.25}] * 3}
    declared = {"wall_s": {"better": "lower", "bound": 0.24},
                "ci_coverage": {"better": "higher", "bound": 0.05}}
    table = bench_pairs.no_regression(runs, declared)
    assert table["wall_s"]["worse_by"] == 0.25
    assert not table["wall_s"]["within_bound"]
    assert table["wall_s"]["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert table["ci_coverage"]["worse_by"] == 0.0
    assert table["ci_coverage"]["within_bound"]
