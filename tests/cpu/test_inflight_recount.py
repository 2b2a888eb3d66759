"""The adaptive threshold's in-flight-miss override, counted only when read.

``SystemState.l1d_inflight_misses`` recounts the L1D's outstanding misses
each time it is read, and :meth:`AdaptiveThreshold.effective` reads it only
past its ROB-stall gate.  These tests pin both halves: the recount is skipped
where the gate stays shut, and where the override fires every drive path
gives DRIPPER the same result.
"""

from dataclasses import asdict

import pytest

from repro.core import make_dripper, make_ppf
from repro.core.policies import PermitPgc
from repro.core.system_state import SystemState
from repro.core.thresholds import ThresholdConfig
from repro.cpu.simulator import SimConfig, simulate, simulate_policies
from repro.mem.cache import Cache
from repro.workloads import by_name

_HIGH = ThresholdConfig().inflight_misses_high


def _config(policy_factory, packed):
    return SimConfig(prefetcher="berti", policy_factory=policy_factory,
                     warmup_instructions=4_000, sim_instructions=12_000, packed=packed)


def _dripper():
    return make_dripper("berti")


@pytest.fixture
def override_fires(monkeypatch):
    """Counts the reads of the in-flight signal that force the high threshold."""
    fired = []
    recount = SystemState.l1d_inflight_misses.fget

    def counted(state):
        value = recount(state)
        if value > _HIGH:
            fired.append(value)
        return value

    monkeypatch.setattr(SystemState, "l1d_inflight_misses", property(counted))
    return fired


def test_override_is_exact_on_every_drive_path(override_fires):
    """bfs.kron at 4k+12k takes the ROB-pressure in-flight arm on each path."""
    workload = by_name("bfs.kron")
    results, fires = [], []
    for drive in ("generator", "packed", "lockstep"):
        override_fires.clear()
        if drive == "lockstep":
            configs = [_config(f, packed=True) for f in (_dripper, PermitPgc, make_ppf)]
            results.append(simulate_policies(workload, configs)[0])
        else:
            results.append(simulate(workload, _config(_dripper, packed=drive == "packed")))
        fires.append(len(override_fires))
    assert fires[0] > 0
    assert fires == [fires[0]] * 3
    assert asdict(results[1]) == asdict(results[0])
    assert asdict(results[2]) == asdict(results[0])


def test_recount_runs_only_when_read(monkeypatch):
    """astar's ROB-stall gate never opens, so DRIPPER never recounts."""
    calls = []
    recount = Cache.in_flight_misses

    def counted(cache, t):
        calls.append(t)
        return recount(cache, t)

    monkeypatch.setattr(Cache, "in_flight_misses", counted)
    dripper = _dripper()
    simulate(by_name("astar"), _config(lambda: dripper, packed=False))
    assert dripper.predictions > 0
    assert calls == []
