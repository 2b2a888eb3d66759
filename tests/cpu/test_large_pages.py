"""Large-page (2MB) behaviour of the page-cross plumbing (Figure 16 path)."""

import pytest

from repro.core.context import PrefetchRequest
from repro.core.policies import Decision, PageCrossPolicy, PermitPgc
from repro.cpu.simulator import SimConfig, build_engine
from repro.prefetch.base import L1dPrefetcher
from repro.workloads.trace import LOAD


class FixedDeltaPrefetcher(L1dPrefetcher):
    name = "fixed"

    def __init__(self, delta_lines: int):
        super().__init__()
        self.delta = delta_lines

    def on_access(self, pc, vaddr, hit, t):
        return [PrefetchRequest(vaddr + (self.delta << 6), pc, self.delta)]


class CountingPolicy(PageCrossPolicy):
    name = "counting"

    def __init__(self, issue=True):
        self.issue = issue
        self.consultations = 0

    def decide(self, req, ctx, state):
        self.consultations += 1
        return Decision(self.issue)


def engine_with(prefetcher, policy, large_fraction):
    config = SimConfig(
        policy_factory=lambda: policy,
        large_page_fraction=large_fraction,
    )
    return build_engine(config, prefetcher=prefetcher)


class TestSmallPages:
    def test_4k_cross_consults_policy(self):
        policy = CountingPolicy()
        e = engine_with(FixedDeltaPrefetcher(70), policy, 0.0)
        e.step(0x400, 0x1000, LOAD, 0)
        assert policy.consultations == 1


class TestLargePages:
    def test_4k_cross_within_2m_page_still_filtered_by_default(self):
        """DRIPPER filters at 4KB boundaries regardless of page size."""
        policy = CountingPolicy()
        e = engine_with(FixedDeltaPrefetcher(70), policy, 1.0)
        e.step(0x400, 0x1000, LOAD, 0)
        assert policy.consultations == 1
        assert e.pgc.same_translation == 1

    def test_native_boundary_policy_skips_within_translation_crossers(self):
        """DRIPPER(filter@2MB) only filters true translation crossers."""
        policy = CountingPolicy()
        policy.filter_at_native_boundary = True
        e = engine_with(FixedDeltaPrefetcher(70), policy, 1.0)
        e.step(0x400, 0x1000, LOAD, 0)  # +70 lines stays inside the 2MB page
        assert policy.consultations == 0
        assert e.pgc.issued == 1  # issued unfiltered

    def test_native_boundary_policy_still_filters_2m_crossers(self):
        policy = CountingPolicy()
        policy.filter_at_native_boundary = True
        e = engine_with(FixedDeltaPrefetcher(70), policy, 1.0)
        near_edge = (1 << 21) - 0x100  # last lines of the first 2MB page
        e.step(0x400, near_edge, LOAD, 0)
        assert policy.consultations == 1

    def test_within_2m_cross_needs_no_walk(self):
        """A 4KB-cross inside a 2MB page reuses the trigger's translation."""
        e = engine_with(FixedDeltaPrefetcher(70), PermitPgc(), 1.0)
        e.step(0x400, 0x1000, LOAD, 0)
        assert e.pgc.issued == 1
        assert e.walker.speculative_walks == 0

    def test_true_2m_cross_walks(self):
        e = engine_with(FixedDeltaPrefetcher(70), PermitPgc(), 1.0)
        near_edge = (1 << 21) - 0x100
        e.step(0x400, near_edge, LOAD, 0)
        assert e.walker.speculative_walks == 1

    def test_2m_pages_reduce_demand_walk_depth(self):
        small = engine_with(FixedDeltaPrefetcher(1), CountingPolicy(False), 0.0)
        large = engine_with(FixedDeltaPrefetcher(1), CountingPolicy(False), 1.0)
        for e in (small, large):
            for i in range(64):
                e.step(0x400, i << 12, LOAD, 0)  # one access per 4KB page
        # 2MB pages: one walk covers 512 pages -> far fewer demand walks
        assert large.walker.demand_walks < small.walker.demand_walks / 4


class TestSimulatedLargePages:
    @pytest.mark.slow
    def test_fig16_variant_runs_end_to_end(self):
        from repro.experiments.runner import RunSpec, run_many
        from repro.workloads import by_name

        spec = RunSpec(
            policy="dripper", warmup_instructions=4_000, sim_instructions=12_000,
            large_page_fraction=0.5, filter_at_native_boundary=True,
        )
        result = run_many([by_name("libquantum")], spec)[0]
        assert result.instructions > 0
