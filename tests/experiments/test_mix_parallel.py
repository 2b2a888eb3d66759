"""Mix-affine scheduling: serial equivalence, pack sharing, fig19 at scale."""

import pytest

from repro.experiments.parallel import (
    build_mix_config,
    grid_session,
    mix_cell_for,
    run_mix_cells,
)
from repro.experiments.runner import RunSpec
from repro.obs import Observability, RunJournal, read_journal
from repro.workloads import by_name, make_mixes

FAST = RunSpec(warmup_instructions=1_000, sim_instructions=3_000)


def _mix(names=("astar", "hmmer", "mcf", "lbm")):
    return [by_name(name) for name in names]


class TestMixCellBasics:
    def test_mix_cell_carries_registry_names(self):
        cell = mix_cell_for(_mix(), FAST, policy="permit", mix_id=3)
        assert cell.workloads == ("astar", "hmmer", "mcf", "lbm")
        assert [w.name for w in cell.resolve_workloads()] == list(cell.workloads)
        assert cell.label() == "mix-3"

    def test_mix_cells_are_picklable(self):
        import pickle

        cell = mix_cell_for(_mix(), FAST, policy="dripper", mix_id=0)
        assert pickle.loads(pickle.dumps(cell)) == cell

    def test_build_mix_config_applies_policy_override(self):
        plain = build_mix_config(mix_cell_for(_mix(), FAST))
        overridden = build_mix_config(mix_cell_for(_mix(), FAST, policy="permit"))
        assert plain.policy_factory is not overridden.policy_factory
        # nominal windows: per-core QMM halving is simulate_mix's job
        assert overridden.warmup_instructions == FAST.warmup_instructions

    def test_run_mix_cells_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_mix_cells([mix_cell_for(_mix(), FAST)], jobs=0)


class TestMixSerialParallelEquivalence:
    def test_mix_grid_identical_under_jobs2(self):
        # mixes drawn from the real registry (includes QMM halved-budget
        # cores); every policy of every mix must match the serial run
        mixes = make_mixes(2, 4, seed=11)
        cells = [
            mix_cell_for(mix, FAST, policy=policy, mix_id=i)
            for i, mix in enumerate(mixes)
            for policy in ("discard", "dripper")
        ]
        serial = run_mix_cells(cells, jobs=1)
        with grid_session(2):
            parallel = run_mix_cells(cells, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.results == b.results

    def test_on_result_fires_in_input_positions(self):
        seen = {}
        cells = [mix_cell_for(_mix(), FAST, mix_id=i) for i in range(2)]
        run_mix_cells(cells, jobs=1,
                      on_result=lambda i, r, cached: seen.setdefault(i, r))
        assert sorted(seen) == [0, 1]

    def test_jobs2_journal_tags_every_core(self, tmp_path):
        journal = tmp_path / "mixes.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cells = [mix_cell_for(_mix(), FAST, mix_id=i) for i in range(2)]
        run_mix_cells(cells, jobs=2, obs=obs)
        obs.close()
        records = read_journal(journal)
        assert len(records) == 2 * 4
        by_mix = {}
        for record in records:
            by_mix.setdefault(record["context"]["mix"], []).append(
                record["context"]["core"])
        assert {mix: sorted(cores) for mix, cores in by_mix.items()} == {
            0: [0, 1, 2, 3], 1: [0, 1, 2, 3]}


class TestFig19:
    def test_fig19_parallel_equals_serial(self):
        from repro.experiments.figures import fig19_multicore

        kwargs = dict(n_mixes=2, cores=2, warmup_instructions=1_000,
                      sim_instructions=3_000, seed=3)
        serial = fig19_multicore(**kwargs)
        parallel = fig19_multicore(**kwargs, jobs=2, packed=True)
        assert serial == parallel
        assert set(serial) == {"permit", "dripper"}
        assert len(serial["dripper"]["per_mix_pct"]) == 2

    def test_fig19_cache_dedupes_isolation_runs(self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.experiments.figures import fig19_multicore

        kwargs = dict(n_mixes=2, cores=2, warmup_instructions=1_000,
                      sim_instructions=3_000, seed=3)
        cache = ResultCache(tmp_path / "cache")
        first = fig19_multicore(**kwargs, cache=cache)
        stored = cache.stats["stores"]
        assert stored > 0
        second = fig19_multicore(**kwargs, cache=cache)
        assert second == first
        # the second invocation re-simulates no isolation cell
        assert cache.stats["stores"] == stored
        assert cache.stats["hits"] >= stored

    def test_fig19_rejects_degenerate_policy_list(self):
        from repro.experiments.figures import fig19_multicore

        with pytest.raises(ValueError, match="baseline"):
            fig19_multicore(n_mixes=1, cores=2, policies=("discard",))
