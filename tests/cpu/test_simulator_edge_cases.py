"""Simulator driver edge cases and configuration variants."""

import pytest

from repro.core.policies import DiscardPgc, PermitPgc
from repro.cpu.simulator import SimConfig, simulate
from repro.workloads.patterns import Stream
from repro.workloads.synthetic import SyntheticWorkload


class FiniteWorkload:
    """A workload whose trace ends (tests the too-short error path)."""

    name = "finite"
    suite = "TEST"

    def __init__(self, records: int):
        self.records = records

    def generate(self):
        for i in range(self.records):
            yield 0x400, 0x1000 + i * 64, 1, 0


class TestShortTraces:
    # the packed path drives an incomplete pack: the kernel reports the end
    # of its records and the single-core driver raises the same errors
    @pytest.mark.parametrize("packed", [False, True], ids=["generator", "packed"])
    def test_trace_shorter_than_warmup_raises(self, packed):
        config = SimConfig(policy_factory=DiscardPgc, warmup_instructions=1_000,
                           sim_instructions=1_000, packed=packed)
        with pytest.raises(ValueError, match="before the .* warm-up"):
            simulate(FiniteWorkload(100), config)

    @pytest.mark.parametrize("packed", [False, True], ids=["generator", "packed"])
    def test_trace_ending_mid_measurement_raises(self, packed):
        config = SimConfig(policy_factory=DiscardPgc, warmup_instructions=100,
                           sim_instructions=10_000, packed=packed)
        with pytest.raises(ValueError, match="truncating the measured region"):
            simulate(FiniteWorkload(800), config)

    def test_trace_covering_both_regions_records_requested(self):
        config = SimConfig(policy_factory=DiscardPgc, warmup_instructions=100, sim_instructions=500)
        result = simulate(FiniteWorkload(800), config)
        assert result.requested_instructions == 500
        assert result.instructions >= 500


class HighGapWorkload:
    """Every record spans 1000 instructions (gap overshoot edge cases)."""

    name = "highgap"
    suite = "TEST"

    def generate(self):
        for i in range(60):
            yield 0x400, 0x1000 + (i % 8) * 64, 1, 999


class TestMeasurementWindow:
    def test_gap_overshoot_still_measures_full_region(self):
        # warm-up ends at the first record boundary >= 1500, which the
        # 1000-instruction records overshoot to 2000; the drive loop must
        # keep going until the *measured* region spans sim_instructions
        # (the old loop broke at the raw warmup+sim total and silently
        # under-measured by the overshoot)
        config = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=1_500, sim_instructions=3_000
        )
        result = simulate(HighGapWorkload(), config)
        assert result.instructions >= 3_000

    def test_gap_overshoot_matches_packed_path(self):
        config = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=1_500, sim_instructions=3_000,
            packed=True,
        )
        result = simulate(HighGapWorkload(), config)
        assert result.instructions >= 3_000


class TestConfigVariants:
    def make_workload(self):
        return SyntheticWorkload(
            "w", "TEST", 3,
            [(lambda: Stream(0, stride_lines=1, footprint_pages=512), 1 << 30)],
            mean_gap=2.0,
        )

    def test_no_prefetcher_never_produces_pgc(self):
        config = SimConfig(
            prefetcher="none", policy_factory=PermitPgc,
            warmup_instructions=1_000, sim_instructions=4_000,
        )
        result = simulate(self.make_workload(), config)
        assert result.pgc_candidates == 0
        assert result.prefetch_fills == 0

    def test_epoch_length_configurable(self):
        for epoch in (256, 8192):
            config = SimConfig(
                policy_factory=DiscardPgc, epoch_instructions=epoch,
                warmup_instructions=1_000, sim_instructions=4_000,
            )
            assert simulate(self.make_workload(), config).instructions > 0

    def test_asid_changes_physical_layout_not_behaviour(self):
        results = []
        for asid in (0, 3):
            config = SimConfig(
                policy_factory=DiscardPgc, asid=asid,
                warmup_instructions=1_000, sim_instructions=4_000,
            )
            results.append(simulate(self.make_workload(), config))
        # different frames, same access pattern: IPCs track closely
        assert results[0].ipc == pytest.approx(results[1].ipc, rel=0.05)

    def test_prefetcher_extra_storage_accepted(self):
        config = SimConfig(
            prefetcher="berti", policy_factory=DiscardPgc,
            prefetcher_extra_storage=1475,
            warmup_instructions=1_000, sim_instructions=4_000,
        )
        assert simulate(self.make_workload(), config).instructions > 0
