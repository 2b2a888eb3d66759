"""Bootstrap confidence intervals."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.stats_ci import (
    BootstrapInterval,
    bootstrap_geomean,
    bootstrap_statistic,
    paired_difference_ci,
    percentile_bootstrap,
)

speedup_lists = st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=3, max_size=30)


class TestBootstrapGeomean:
    def test_point_matches_geomean(self):
        ci = bootstrap_geomean([1.1, 1.1, 1.1, 1.1])
        assert ci.point_pct == pytest.approx(10.0, abs=1e-9)

    def test_degenerate_sample_zero_width(self):
        ci = bootstrap_geomean([1.05] * 10)
        assert ci.width_pct == pytest.approx(0.0, abs=1e-9)

    def test_interval_contains_point(self):
        ci = bootstrap_geomean([0.9, 1.0, 1.1, 1.3, 0.95, 1.2])
        assert ci.lo_pct <= ci.point_pct <= ci.hi_pct

    def test_clear_effect_excludes_zero(self):
        ci = bootstrap_geomean([1.1, 1.15, 1.2, 1.12, 1.18, 1.09])
        assert ci.excludes_zero()

    def test_noisy_effect_includes_zero(self):
        ci = bootstrap_geomean([0.8, 1.25, 0.85, 1.2, 0.9, 1.15])
        assert not ci.excludes_zero()

    def test_deterministic_given_seed(self):
        data = [0.9, 1.1, 1.05, 1.2]
        a = bootstrap_geomean(data, seed=7)
        b = bootstrap_geomean(data, seed=7)
        assert (a.lo_pct, a.hi_pct) == (b.lo_pct, b.hi_pct)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            bootstrap_geomean([])
        with pytest.raises(ValueError):
            bootstrap_geomean([1.0, 0.0])

    @given(speedup_lists)
    @settings(max_examples=20, deadline=None)
    def test_interval_ordered(self, speedups):
        ci = bootstrap_geomean(speedups, resamples=200)
        assert ci.lo_pct <= ci.hi_pct

    @given(speedup_lists)
    @settings(max_examples=10, deadline=None)
    def test_wider_confidence_wider_interval(self, speedups):
        narrow = bootstrap_geomean(speedups, confidence=0.80, resamples=500)
        wide = bootstrap_geomean(speedups, confidence=0.99, resamples=500)
        assert wide.width_pct >= narrow.width_pct - 1e-9


class TestPairedDifference:
    def test_identical_policies_zero(self):
        a = [1.0, 1.1, 0.9]
        ci = paired_difference_ci(a, a)
        assert ci.point_pct == pytest.approx(0.0, abs=1e-9)

    def test_consistent_winner_resolved(self):
        a = [1.10, 1.21, 0.99, 1.32]
        b = [1.00, 1.10, 0.90, 1.20]  # a is ~10% faster on every workload
        ci = paired_difference_ci(a, b)
        assert ci.excludes_zero()
        assert ci.point_pct == pytest.approx(10.0, abs=0.5)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            paired_difference_ci([1.0], [1.0, 1.0])

    def test_sign_convention_a_over_b(self):
        # positive point = A faster; swapping the arguments flips the sign
        a, b = [1.2, 1.3, 1.25], [1.0, 1.1, 1.05]
        fwd = paired_difference_ci(a, b)
        rev = paired_difference_ci(b, a)
        assert fwd.point_pct > 0 > rev.point_pct
        # geomean ratios invert exactly: (1+fwd)(1+rev) == 1
        assert (1 + fwd.point_pct / 100) * (1 + rev.point_pct / 100) == \
            pytest.approx(1.0, abs=1e-9)


class TestBootstrapStatistic:
    @staticmethod
    def _ipc(pairs):
        cycles = sum(c for _, c in pairs)
        return sum(i for i, _ in pairs) / cycles if cycles else 0.0

    def test_point_is_plugin_estimate(self):
        pairs = [(100, 400.0), (100, 200.0), (50, 300.0)]
        ci = bootstrap_statistic(pairs, self._ipc)
        assert ci.point == pytest.approx(250 / 900)
        assert ci.lo <= ci.point <= ci.hi

    def test_single_sample_zero_width(self):
        ci = bootstrap_statistic([(10, 40.0)], self._ipc)
        assert ci.lo == ci.hi == ci.point == pytest.approx(0.25)
        assert ci.width == 0.0 and ci.rel_width() == 0.0

    def test_zero_variance_zero_width(self):
        ci = bootstrap_statistic([(10, 40.0)] * 8, self._ipc)
        assert ci.width == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        pairs = [(100, 400.0), (80, 200.0), (50, 300.0), (120, 500.0)]
        a = bootstrap_statistic(pairs, self._ipc, seed=5)
        b = bootstrap_statistic(pairs, self._ipc, seed=5)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_wider_confidence_wider_interval(self):
        pairs = [(100, 400.0), (80, 200.0), (50, 300.0), (120, 500.0)]
        narrow = bootstrap_statistic(pairs, self._ipc, confidence=0.80)
        wide = bootstrap_statistic(pairs, self._ipc, confidence=0.99)
        assert wide.width >= narrow.width - 1e-12

    def test_rejects_empty_and_bad_resamples(self):
        with pytest.raises(ValueError):
            bootstrap_statistic([], self._ipc)
        with pytest.raises(ValueError):
            bootstrap_statistic([(1, 1.0)], self._ipc, resamples=0)

    def test_interval_helpers(self):
        ci = BootstrapInterval(point=0.5, lo=0.4, hi=0.6, confidence=0.95)
        assert ci.width == pytest.approx(0.2)
        assert ci.rel_width() == pytest.approx(0.4)
        assert ci.contains(0.4) and ci.contains(0.6) and not ci.contains(0.61)
        assert BootstrapInterval(0.0, 0.0, 0.0, 0.95).rel_width() == 0.0


class TestPercentileBootstrap:
    @pytest.mark.parametrize("n,seed,resamples", [
        (1, 0, 50), (2, 3, 40), (7, 1, 300), (64, 0, 200), (64, 5, 3),
        (100, 2, 60), (1000, 9, 5),
    ])
    def test_draws_match_randrange(self, n, seed, resamples):
        # the index draws are the ones a plain randrange loop makes, so every
        # recorded bootstrap interval keeps its bounds
        rng = random.Random(seed)
        want = [[rng.randrange(n) for _ in range(n)] for _ in range(resamples)]
        seen = []

        def record(idx):
            seen.append(list(idx))
            return float(len(seen))

        lo, hi = percentile_bootstrap(n, record, confidence=0.9,
                                      resamples=resamples, seed=seed)
        assert seen == want
        alpha = (1.0 - 0.9) / 2.0
        assert lo == 1.0 + int(alpha * resamples)
        assert hi == 1.0 + min(resamples - 1, int((1.0 - alpha) * resamples))

    def test_rejects_bad_resamples(self):
        with pytest.raises(ValueError):
            percentile_bootstrap(4, len, resamples=0)
