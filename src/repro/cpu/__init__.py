"""CPU substrate: out-of-order core model and simulation drivers."""

from repro.cpu.core import CoreEngine
from repro.cpu.fastpath import drive_packed
from repro.cpu.multicore import MixResult, isolation_ipc, simulate_mix
from repro.cpu.simulator import (
    SimConfig,
    SimResult,
    build_engine,
    drive,
    simulate,
    simulate_policies,
)

__all__ = [
    "CoreEngine",
    "drive_packed",
    "MixResult",
    "isolation_ipc",
    "simulate_mix",
    "SimConfig",
    "SimResult",
    "build_engine",
    "drive",
    "simulate",
    "simulate_policies",
]
