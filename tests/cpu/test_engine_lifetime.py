"""Engine lifetime: a finished engine is freed by reference counting alone.

The engine's object graph is a tree (DESIGN.md §16): each cache writes back
into the level below and nothing points back up at its owner.  So when
``simulate()`` returns, every cache, block, TLB and policy object of the run
is already gone, and the cycle collector finds nothing.  These tests run
with the collector disabled and ``DEBUG_SAVEALL`` set, so any reference
cycle a run leaves behind shows up as a nonzero ``gc.collect()``.
"""

import gc
import weakref

import pytest

from repro.cpu import simulator
from repro.cpu.multicore import simulate_mix
from repro.cpu.simulator import SimConfig, simulate
from repro.experiments.figures import (
    Scale,
    fig2_motivation_ipc,
    fig9_scheme_comparison,
    fig19_multicore,
)
from repro.experiments.runner import policy_factory
from repro.experiments.sampling import SamplingConfig
from repro.obs import Observability, Probe, TimelineRecorder
from repro.workloads.registry import by_name

TINY = Scale(n_workloads=2, warmup_instructions=500, sim_instructions=1_500)


def tiny_config(**overrides) -> SimConfig:
    return SimConfig(
        prefetcher="berti",
        policy_factory=policy_factory("dripper", "berti"),
        warmup_instructions=1_000,
        sim_instructions=3_000,
        **overrides,
    )


@pytest.fixture
def no_collector():
    """Collector off, unreachable objects kept: leaks become countable."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def cyclic_garbage(run) -> int:
    """Objects that only the cycle collector could free after ``run()``."""
    gc.collect()
    gc.garbage.clear()
    run()
    return gc.collect()


def test_hierarchy_freed_when_simulate_returns(no_collector, monkeypatch):
    refs = []
    original = simulator.build_engine

    def build_engine(config, **kwargs):
        engine = original(config, **kwargs)
        refs.append(weakref.ref(engine.hierarchy))
        return engine

    monkeypatch.setattr(simulator, "build_engine", build_engine)
    simulate(by_name("astar"), tiny_config())
    assert len(refs) == 1
    assert refs[0]() is None


def astar(**overrides):
    return lambda: simulate(by_name("astar"), tiny_config(**overrides))


def packed_with_replay():
    # the first drive records the pack's prefetch stream, the second replays it
    simulate(by_name("astar"), tiny_config(packed=True))
    simulate(by_name("astar"), tiny_config(packed=True))


def observed():
    obs = Observability(timeline=TimelineRecorder(), probe=Probe())
    simulate(by_name("astar"), tiny_config(), obs=obs)
    assert obs.last_engine is None and obs.timeline.rows


def mix():
    simulate_mix([by_name("astar"), by_name("mcf")], tiny_config())


def figures():
    fig2_motivation_ipc(TINY, prefetchers=("berti",))
    fig9_scheme_comparison(TINY, prefetchers=("berti",))
    fig19_multicore(n_mixes=1, cores=2, warmup_instructions=500,
                    sim_instructions=1_500, jobs=1)


@pytest.mark.parametrize("run", [
    astar(),
    packed_with_replay,
    astar(sampling=SamplingConfig(intervals=16, phases=4)),
    astar(validate=True),
    observed,
    mix,
    figures,
], ids=["generator", "packed-replay", "sampled", "validate",
        "obs-timeline-probe", "simulate-mix", "figures"])
def test_no_cyclic_garbage(no_collector, run):
    assert cyclic_garbage(run) == 0


def test_keep_engine_retains_the_engine(no_collector):
    obs = Observability(keep_engine=True)
    simulate(by_name("astar"), tiny_config(), obs=obs)
    hierarchy = weakref.ref(obs.last_engine.hierarchy)
    assert hierarchy() is not None
    obs.last_engine = None
    assert hierarchy() is None
