"""MOKA's system features (Section III-D2, Table I).

A *system feature* gates a single saturating-counter weight on the current
system state: the weight joins the cumulative sum only while the feature's
condition (value above/below its threshold) holds.  This is how the filter
learns phase-dependent usefulness — e.g. "page-cross prefetching pays off
while the sTLB is under pressure" — that program features cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, lt
from typing import Callable

from repro.core.system_state import SystemState

Getter = Callable[[SystemState], float]


@dataclass(frozen=True)
class SystemFeatureSpec:
    """Definition of one system feature."""

    name: str
    getter: Getter
    #: '<' -> active while value < threshold, '>' -> active while value > threshold
    direction: str
    default_threshold: float

    def gate(self, threshold: float | None = None
             ) -> tuple[Getter, Callable[[float, float], bool], float]:
        """``(getter, compare, threshold)``: active while ``compare(getter(state), threshold)``.

        ``threshold=None`` keeps the default.  A filter resolves its gates
        once and evaluates them per decision.
        """
        return (self.getter, lt if self.direction == "<" else gt,
                self.default_threshold if threshold is None else threshold)

    def active(self, state: SystemState, threshold: float | None = None) -> bool:
        """Whether this feature's weight joins the cumulative sum right now."""
        getter, compare, t = self.gate(threshold)
        return compare(getter(state), t)


# Directions follow Section III-E's rationale: MPKI features target phases of
# *low* pressure (page-cross prefetches are then cheap — TLB hit likely, no
# walk), miss-rate features target phases of *high* pressure (page-cross
# prefetches then double as TLB prefetches).
SYSTEM_FEATURES: dict[str, SystemFeatureSpec] = {
    spec.name: spec
    for spec in (
        SystemFeatureSpec("L1D MPKI", lambda s: s.l1d_mpki, "<", 20.0),
        SystemFeatureSpec("L1D Miss Rate", lambda s: s.l1d_miss_rate, ">", 0.30),
        SystemFeatureSpec("LLC MPKI", lambda s: s.llc_mpki, "<", 5.0),
        SystemFeatureSpec("LLC Miss Rate", lambda s: s.llc_miss_rate, ">", 0.50),
        SystemFeatureSpec("sTLB MPKI", lambda s: s.stlb_mpki, "<", 1.0),
        SystemFeatureSpec("sTLB Miss Rate", lambda s: s.stlb_miss_rate, ">", 0.10),
    )
}


def get_system_feature(name: str) -> SystemFeatureSpec:
    """Look a system feature up by its Table I name."""
    try:
        return SYSTEM_FEATURES[name]
    except KeyError:
        raise KeyError(
            f"unknown system feature {name!r}; known: {sorted(SYSTEM_FEATURES)}"
        ) from None
