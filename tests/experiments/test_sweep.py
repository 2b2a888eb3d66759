"""Parameter-sweep helpers."""

from dataclasses import replace

import pytest

from repro.experiments.metrics import geomean_speedup, speedup_percent
from repro.experiments.runner import RunSpec, run_policies
from repro.experiments.sweep import (
    dram_latency_transform,
    dtlb_size_transform,
    stlb_size_transform,
    sweep_epoch_length,
    sweep_parameter,
)
from repro.params import DEFAULT_PARAMS
from repro.workloads import by_name

TINY_SPEC = RunSpec(warmup_instructions=2_000, sim_instructions=6_000)


class TestTransforms:
    def test_stlb_size(self):
        p = stlb_size_transform(DEFAULT_PARAMS, 768)
        assert p.stlb.entries == 768
        assert p.stlb.ways == DEFAULT_PARAMS.stlb.ways
        assert p.dtlb == DEFAULT_PARAMS.dtlb

    def test_dtlb_size(self):
        p = dtlb_size_transform(DEFAULT_PARAMS, 128)
        assert p.dtlb.entries == 128

    def test_dram_latency(self):
        p = dram_latency_transform(DEFAULT_PARAMS, 300)
        assert p.dram.access_latency == 300
        assert p.dram.transfer_cycles == DEFAULT_PARAMS.dram.transfer_cycles

    def test_transforms_do_not_mutate_default(self):
        stlb_size_transform(DEFAULT_PARAMS, 768)
        assert DEFAULT_PARAMS.stlb.entries == 1536

    def test_stlb_size_must_divide_ways(self):
        # 100 entries over 12 ways would make a fractional-set TLB
        with pytest.raises(ValueError, match="multiple of its 12 ways"):
            stlb_size_transform(DEFAULT_PARAMS, 100)

    def test_dtlb_size_must_divide_ways(self):
        with pytest.raises(ValueError, match="multiple of its 4 ways"):
            dtlb_size_transform(DEFAULT_PARAMS, 130)

    def test_tlb_size_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            stlb_size_transform(DEFAULT_PARAMS, 0)


@pytest.mark.slow
class TestSweeps:
    def test_sweep_parameter_shape(self):
        workloads = [by_name("hmmer")]
        data = sweep_parameter(
            workloads, stlb_size_transform, (768, 1536),
            policies=("permit",), base_spec=TINY_SPEC,
        )
        assert set(data) == {768, 1536}
        assert set(data[768]) == {"permit"}

    def test_sweep_epoch_length_shape(self):
        workloads = [by_name("hmmer")]
        data = sweep_epoch_length(workloads, (512, 2048), base_spec=TINY_SPEC)
        assert set(data) == {512, 2048}


class TestSweepIso:
    def test_sweep_iso_matches_run_policies(self):
        # a sweep's ISO cell is ISO: Permit with DRIPPER's storage budget
        # handed to the prefetcher, exactly what run_policies runs
        workloads = [by_name("bfs.web")]
        spec = RunSpec(prefetcher="bop", warmup_instructions=2_000, sim_instructions=6_000)
        swept = sweep_parameter(workloads, dram_latency_transform, (200,),
                                policies=("iso",), base_spec=spec)
        direct = run_policies(
            workloads, ["discard", "iso"],
            base_spec=replace(spec, params=dram_latency_transform(DEFAULT_PARAMS, 200)))
        assert swept[200]["iso"] == speedup_percent(
            geomean_speedup(direct["iso"], direct["discard"]))
