"""Adaptive thresholding scheme (Figure 8)."""

from repro.core.system_state import EpochStats, SystemState
from repro.core.thresholds import DISABLE, AdaptiveThreshold, StaticThreshold, ThresholdConfig


def epoch(useful=10, useless=0, ipc=1.0, llc_rate=0.1, llc_mpki=1.0, l1i_mpki=0.0, rob=0.0):
    return EpochStats(
        instructions=1000, cycles=1000 / ipc, ipc=ipc,
        pgc_useful=useful, pgc_useless=useless,
        llc_miss_rate=llc_rate, llc_mpki=llc_mpki,
        l1i_mpki=l1i_mpki, rob_stall_fraction=rob,
    )


def quiet_state(in_flight=0):
    return SystemState(in_flight=lambda t: in_flight)


class TestStaticThreshold:
    def test_constant(self):
        t = StaticThreshold(3)
        assert t.effective(quiet_state()) == 3
        t.on_epoch_end(epoch())
        assert t.effective(quiet_state()) == 3


class TestEpochAccuracy:
    def test_low_accuracy_forces_high(self):
        t = AdaptiveThreshold()
        t.on_epoch_end(epoch(useful=1, useless=9))
        assert t.current == t.config.t_high

    def test_medium_accuracy_forces_at_least_medium(self):
        t = AdaptiveThreshold()
        t.on_epoch_end(epoch(useful=4, useless=6))
        assert t.current >= t.config.t_medium

    def test_high_accuracy_keeps_default(self):
        t = AdaptiveThreshold()
        t.on_epoch_end(epoch(useful=10, useless=0))
        assert t.current <= t.config.t_default + 1

    def test_no_pgc_epoch_counts_as_accurate(self):
        assert epoch(useful=0, useless=0).pgc_accuracy == 1.0

    def test_accuracy_trend_moves_threshold(self):
        """Accuracy increase (decrease) between epochs moves T_a up (down)."""
        t = AdaptiveThreshold()
        t.on_epoch_end(epoch(useful=6, useless=4))
        mid = t.current
        t.on_epoch_end(epoch(useful=9, useless=1))
        assert t.current == mid + 1

    def test_threshold_clamped(self):
        t = AdaptiveThreshold()
        for _ in range(30):
            t.on_epoch_end(epoch(useful=1, useless=9))
        assert t.config.t_low <= t.current <= t.config.t_high


class TestIpcRule:
    def test_ipc_drop_with_poor_accuracy_forces_medium(self):
        cfg = ThresholdConfig(t_default=-4)
        t = AdaptiveThreshold(cfg)
        t.on_epoch_end(epoch(ipc=1.0, useful=4, useless=6))
        t.on_epoch_end(epoch(ipc=0.8, useful=4, useless=6))
        assert t.current >= cfg.t_medium

    def test_ipc_drop_with_accurate_pgc_not_blamed(self):
        """Contention noise must not throttle an accurate filter (mixes)."""
        cfg = ThresholdConfig(t_default=-4)
        t = AdaptiveThreshold(cfg)
        t.on_epoch_end(epoch(ipc=1.0, useful=10, useless=0))
        t.on_epoch_end(epoch(ipc=0.8, useful=10, useless=0))
        assert t.current < cfg.t_medium

    def test_stable_ipc_no_forcing(self):
        cfg = ThresholdConfig(t_default=-4)
        t = AdaptiveThreshold(cfg)
        t.on_epoch_end(epoch(ipc=1.0))
        t.on_epoch_end(epoch(ipc=1.0))
        assert t.current < cfg.t_medium


class TestInEpochOverrides:
    def test_llc_pressure_with_bad_accuracy_disables(self):
        t = AdaptiveThreshold()
        state = quiet_state()
        state.llc_miss_rate = 0.95
        state.llc_mpki = 100.0
        state.last_epoch = epoch(useful=1, useless=9)
        assert t.effective(state) == DISABLE
        assert t.disable_events == 1

    def test_llc_pressure_with_good_accuracy_does_not_disable(self):
        t = AdaptiveThreshold()
        state = quiet_state()
        state.llc_miss_rate = 0.95
        state.llc_mpki = 100.0
        state.last_epoch = epoch(useful=9, useless=1)
        assert t.effective(state) != DISABLE

    def test_rob_pressure_with_inflight_misses_forces_high(self):
        t = AdaptiveThreshold()
        state = quiet_state(in_flight=16)
        state.rob_stall_fraction = 0.9
        assert t.effective(state) == t.config.t_high

    def test_rob_pressure_alone_insufficient(self):
        t = AdaptiveThreshold()
        state = quiet_state(in_flight=0)
        state.rob_stall_fraction = 0.9
        assert t.effective(state) == t.config.t_default

    def test_low_recent_accuracy_forces_high(self):
        t = AdaptiveThreshold()
        state = quiet_state()
        state.last_epoch = epoch(useful=0, useless=10)
        assert t.effective(state) == t.config.t_high

    def test_l1i_pressure_forces_medium(self):
        t = AdaptiveThreshold()
        state = quiet_state()
        state.l1i_mpki = 20.0
        assert t.effective(state) == t.config.t_medium

    def test_quiet_state_uses_base(self):
        t = AdaptiveThreshold()
        assert t.effective(quiet_state()) == t.config.t_default
