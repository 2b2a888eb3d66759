"""scripts/bench_hotloop.py: a bare run writes no benchmark file."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_hotloop.py"
spec = importlib.util.spec_from_file_location("bench_hotloop", SCRIPT)
bench_hotloop = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_hotloop)


def test_output_paths_are_opt_in():
    for mode in ([], ["--mix"], ["--sampled"], ["--grid"]):
        args = bench_hotloop.build_parser().parse_args(mode)
        assert (args.out, args.mix_out, args.sampled_out) == (None, None, None)


def test_explicit_output_path_is_kept():
    args = bench_hotloop.build_parser().parse_args(["--mix", "--mix-out", "x.json"])
    assert args.mix_out == "x.json"
