"""InvariantChecker: attachment seams, conservation laws, violation structure."""

import json
import pickle
from types import SimpleNamespace

import pytest

from repro.core.policies import DiscardPgc, PermitPgc
from repro.cpu.simulator import SimConfig, build_engine, collect_result, drive
from repro.experiments.runner import policy_factory
from repro.obs.journal import RunJournal
from repro.validate import InvariantChecker, InvariantViolation
from repro.validate.invariants import VIOLATION_SCHEMA
from repro.workloads.registry import by_name


def tiny_config(policy_factory=PermitPgc, **overrides) -> SimConfig:
    return SimConfig(
        prefetcher="berti",
        policy_factory=policy_factory,
        warmup_instructions=500,
        sim_instructions=1500,
        **overrides,
    )


def checked_run(workload_name: str, config: SimConfig) -> InvariantChecker:
    workload = by_name(workload_name)
    engine = build_engine(config)
    checker = InvariantChecker(workload=workload.name)
    checker.attach(engine)
    drive(engine, workload, config)
    result = collect_result(engine, workload.name, config)
    checker.check_final(engine, result)
    return checker


class TestCleanRuns:
    @pytest.mark.parametrize(
        "factory",
        [DiscardPgc, PermitPgc, policy_factory("dripper", "berti")],
        ids=["discard", "permit", "dripper"],
    )
    def test_conservation_laws_hold_end_to_end(self, factory):
        checker = checked_run("hmmer", tiny_config(factory))
        assert checker.violations == 0
        assert checker.checks > 1  # at least one epoch pass plus the final pass

    def test_validated_run_matches_unvalidated(self):
        from repro.cpu.simulator import simulate
        from repro.validate.differential import result_diff

        workload = by_name("astar")
        plain = simulate(workload, tiny_config())
        validated = simulate(workload, tiny_config(validate=True))
        assert result_diff(plain, validated) == {}

    def test_unattached_engine_untouched(self):
        engine = build_engine(tiny_config())
        assert engine.epoch_listener is None


class TestViolationStructure:
    def force_violation(self, obs=None) -> InvariantViolation:
        engine = build_engine(tiny_config())
        checker = InvariantChecker(obs=obs, workload="unit")
        checker.attach(engine)
        engine.hierarchy.l1d.stats.hits += 1  # break hits + misses == accesses
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_epoch(engine)
        assert checker.violations == 1
        return excinfo.value

    def test_carries_structured_context(self):
        violation = self.force_violation()
        assert violation.invariant == "hit-miss-conservation"
        assert violation.workload == "unit"
        assert violation.scope.startswith("epoch@")
        assert violation.snapshot["hits"] == 1
        assert "hit-miss-conservation" in str(violation)

    def test_is_an_assertion_error(self):
        assert issubclass(InvariantViolation, AssertionError)

    def test_to_record_is_json_serialisable(self):
        record = self.force_violation().to_record()
        assert record["schema"] == VIOLATION_SCHEMA
        assert record["kind"] == "invariant_violation"
        assert record["invariant"] == "hit-miss-conservation"
        json.dumps(record)  # must not raise

    def test_pickle_round_trip(self):
        violation = self.force_violation()
        clone = pickle.loads(pickle.dumps(violation))
        assert clone.invariant == violation.invariant
        assert clone.snapshot == violation.snapshot
        assert clone.workload == violation.workload

    def test_violation_journaled_before_raise(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        self.force_violation(obs=SimpleNamespace(journal=journal))
        journal.close()
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "invariant_violation"
        assert record["invariant"] == "hit-miss-conservation"


class TestIndividualLaws:
    def attach(self):
        engine = build_engine(tiny_config())
        checker = InvariantChecker()
        checker.attach(engine)
        return engine, checker

    def test_fill_ready_in_past_detected(self):
        engine, _ = self.attach()
        with pytest.raises(InvariantViolation) as excinfo:
            engine.hierarchy.l1d.fill(1, 10.0, 5.0)
        assert excinfo.value.invariant == "fill-ready-monotonic"

    def test_fill_wrap_preserves_normal_fills(self):
        engine, _ = self.attach()
        engine.hierarchy.l1d.fill(1, 10.0, 15.0, prefetched=True, pcb=True)
        block = engine.hierarchy.l1d.probe(1)
        assert block is not None and block.pcb

    def test_stalled_instruction_count_detected(self):
        engine, checker = self.attach()
        checker.check_epoch(engine)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_epoch(engine)  # instructions did not advance
        assert excinfo.value.invariant == "instructions-monotonic"

    def test_pgc_conservation_breakage_detected(self):
        engine, checker = self.attach()
        engine.pgc.candidates += 3  # issued + discarded no longer add up
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_epoch(engine)
        assert excinfo.value.invariant == "pgc-conservation"

    def test_mshr_accounting_breakage_detected(self):
        engine, checker = self.attach()
        l1d = engine.hierarchy.l1d
        l1d.miss(7, 0.0, lambda line, t, demand: 50.0 - t, True)
        l1d._outstanding[99] = 1e9  # phantom in-flight miss with no heap entry
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_epoch(engine)
        assert excinfo.value.invariant == "mshr-accounting"

    def test_epoch_listener_chained_not_replaced(self):
        engine = build_engine(tiny_config())
        calls = []
        engine.epoch_listener = lambda eng, epoch: calls.append(epoch)
        checker = InvariantChecker()
        checker.attach(engine)
        engine.epoch_listener(engine, "marker")
        assert calls == ["marker"]
        assert checker.checks == 1
