"""Differential suite: result diffing and the metamorphic checks themselves."""

from dataclasses import replace

from repro.cpu.simulator import simulate
from repro.validate.differential import (
    CheckOutcome,
    check_determinism,
    check_discard_source_equivalence,
    check_epoch_invariance,
    check_invariants_clean,
    check_policy_ensemble_matches_solo,
    check_prefetch_replay_matches_live,
    result_diff,
    run_validation_suite,
)
from repro.experiments.runner import RunSpec
from repro.workloads.registry import by_name

WARMUP, SIM = 500, 1500


def sample_result(**overrides):
    workload = by_name("hmmer")
    spec = RunSpec(prefetcher="berti", policy="permit",
                   warmup_instructions=WARMUP, sim_instructions=SIM)
    result = simulate(workload, spec.config_for(workload))
    return replace(result, **overrides) if overrides else result


class TestResultDiff:
    def test_identical_results_empty_diff(self):
        result = sample_result()
        assert result_diff(result, result) == {}

    def test_differing_field_reported_with_both_values(self):
        a = sample_result()
        b = replace(a, prefetch_fills=a.prefetch_fills + 5)
        diffs = result_diff(a, b)
        assert diffs == {"prefetch_fills": (a.prefetch_fills, a.prefetch_fills + 5)}

    def test_ignore_suppresses_named_fields(self):
        a = sample_result()
        b = replace(a, pgc_candidates=a.pgc_candidates + 1)
        assert result_diff(a, b, ignore=("pgc_candidates",)) == {}


class TestMetamorphicChecks:
    def test_determinism(self):
        outcome = check_determinism("hmmer", prefetcher="berti", policy="permit",
                                    warmup=WARMUP, sim=SIM)
        assert outcome.passed, outcome.detail

    def test_discard_source_equivalence(self):
        outcome = check_discard_source_equivalence("astar", prefetcher="berti",
                                                   warmup=WARMUP, sim=SIM)
        assert outcome.passed, outcome.detail

    def test_epoch_invariance(self):
        outcome = check_epoch_invariance("hmmer", prefetcher="berti",
                                         warmup=WARMUP, sim=SIM)
        assert outcome.passed, outcome.detail

    def test_invariants_clean_per_policy(self):
        outcomes = check_invariants_clean(
            ["hmmer"], policies=("discard", "permit", "dripper"),
            prefetcher="berti", warmup=WARMUP, sim=SIM,
        )
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert outcome.passed, f"{outcome.name}: {outcome.detail}"

    def test_prefetch_replay_matches_live(self):
        outcomes = check_prefetch_replay_matches_live(["hmmer"], warmup=WARMUP, sim=SIM)
        names = {o.name for o in outcomes}
        # 3 prefetchers x (5 Fig. 9 families + the delta/rank filter), plus
        # the live-only assertions for a sampled run and a mix
        assert len(outcomes) == 3 * 6 + 2
        assert "prefetch-replay-vs-live[hmmer/bop/iso]" in names
        assert {"prefetch-stream-live-only[sampled]",
                "prefetch-stream-live-only[mix]"} <= names
        for outcome in outcomes:
            assert outcome.passed, f"{outcome.name}: {outcome.detail}"

    def test_policy_ensemble_matches_solo(self):
        outcomes = check_policy_ensemble_matches_solo(["hmmer"], prefetcher="berti",
                                                      warmup=WARMUP, sim=SIM)
        assert [o.name for o in outcomes] == [
            "policy-ensemble-vs-solo[hmmer/packed]",
            "policy-ensemble-vs-solo[hmmer/generator]",
            "policy-ensemble-exercised",
        ]
        for outcome in outcomes:
            assert outcome.passed, f"{outcome.name}: {outcome.detail}"


class TestSuiteDriver:
    def test_full_suite_passes_and_reports_progress(self):
        seen: list[CheckOutcome] = []
        outcomes = run_validation_suite(
            ["hmmer"], policies=("discard", "permit"), prefetcher="berti",
            warmup=WARMUP, sim=SIM, fuzz_cells=2, jobs=2,
            progress=seen.append,
        )
        assert seen == outcomes
        # the only cells that drive NoPrefetcher through the fused kernel
        assert {"packed-vs-generator[hmmer/none/discard]",
                "packed-vs-generator[hmmer/none/discard@512]"} <= {o.name for o in outcomes}
        failed = [o for o in outcomes if not o.passed]
        assert not failed, "; ".join(f"{o.name}: {o.detail}" for o in failed)
