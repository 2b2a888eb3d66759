"""Probe: the SIGPROF sampler and its per-section breakdown."""

import signal
import time

import pytest

from repro.core.dripper import make_dripper
from repro.cpu.simulator import SimConfig, simulate
from repro.experiments.sampling import SamplingConfig
from repro.obs import Observability
from repro.obs.profiling import OTHER, SECTIONS, Probe, _code_map
from repro.validate import result_diff
from repro.workloads import by_name


def _loaded_probe():
    probe = Probe()
    probe.counts.update({"l1d-hit": 6, "prefetcher": 2, OTHER: 2})
    return probe


class TestBreakdown:
    def test_sorted_by_time_descending(self):
        bd = _loaded_probe().breakdown()
        assert list(bd)[:3] == ["l1d-hit", "prefetcher", OTHER]
        assert bd["l1d-hit"] == {"samples": 6, "share": 0.6}
        assert set(bd) == {*SECTIONS, OTHER}

    def test_format_includes_wall_share(self):
        text = _loaded_probe().format_breakdown()
        assert "10 samples" in text
        assert "60.0%" in text
        assert "named sections: 80.0% of samples" in text

    def test_format_empty(self):
        assert "no samples" in Probe().format_breakdown()

    def test_reset(self):
        probe = _loaded_probe()
        probe.reset()
        assert probe.samples == 0
        assert probe.named_share == 0.0


class TestSampler:
    def test_samples_process_cpu_time(self):
        probe = Probe()
        with probe:
            deadline = time.process_time() + 0.1
            while time.process_time() < deadline:
                pass
        assert probe.samples > 0
        assert probe.counts[OTHER] == probe.samples  # no kernel frame ran

    def test_restores_previous_handler_and_timer(self):
        def previous(signum, frame):
            pass

        old = signal.signal(signal.SIGPROF, previous)
        try:
            with Probe():
                assert signal.getsignal(signal.SIGPROF) is not previous
                assert signal.getitimer(signal.ITIMER_PROF)[1] > 0
            assert signal.getsignal(signal.SIGPROF) is previous
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGPROF, old)

    def test_not_reentrant(self):
        probe = Probe()
        with probe:
            with pytest.raises(RuntimeError, match="already sampling"):
                probe.__enter__()

    def test_markers_cover_every_kernel_section(self):
        tables = [table for table in _code_map().values() if not isinstance(table, str)]
        assert len(tables) == 2  # core_stepper and CoreEngine._dispatch_prefetches
        marked = {section for table in tables for section in table}
        assert marked - {OTHER} == set(SECTIONS) - {"collect"}


class TestEngineIntegration:
    @staticmethod
    def config(**overrides):
        return SimConfig(
            prefetcher="berti",
            policy_factory=lambda: make_dripper("berti"),
            warmup_instructions=4_000,
            sim_instructions=12_000,
            **overrides,
        )

    @pytest.mark.parametrize("overrides", [
        dict(packed=False),
        dict(packed=True),
        dict(packed=True, sampling=SamplingConfig(intervals=16, phases=4)),
    ], ids=["generator", "packed", "sampled"])
    def test_results_bit_identical_with_probe(self, overrides):
        w = by_name("astar")
        plain = simulate(w, self.config(**overrides))
        profiled = simulate(w, self.config(**overrides), obs=Observability(probe=Probe()))
        assert result_diff(plain, profiled) == {}

    def test_profiled_run_covers_hot_paths_without_perturbing_results(self):
        w = by_name("astar")
        config = self.config(packed=True)
        plain = simulate(w, config)
        probe = Probe()
        profiled = simulate(w, config, obs=Observability(probe=probe))
        assert result_diff(plain, profiled) == {}
        assert probe.samples >= 10
        assert probe.named_share >= 0.9
