"""Bootstrap confidence intervals for sampled statistics.

Two consumers share this layer:

* bench samples are small (8-16 workloads), so point geomeans move from
  seed to seed — :func:`bootstrap_geomean` / :func:`paired_difference_ci`
  report ``geomean [lo, hi]`` instead of a bare number and test whether two
  policies' difference is resolvable at the sample size;
* phase-sampled simulation (:mod:`repro.experiments.sampling`) reconstructs
  whole-trace IPC from per-phase representatives — :func:`percentile_bootstrap`
  resamples the interval population (as index lists, so the caller can sum
  its own columns) to put an interval around the ratio-of-sums IPC,
  quantifying how much the reconstruction could move under a different
  draw of intervals.

Both go through :func:`percentile_bootstrap`, the one resampling loop;
:func:`bootstrap_statistic` is its form for any statistic over a sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class ConfidenceInterval:
    """Percentile-bootstrap interval for a geomean speedup (in percent)."""

    point_pct: float
    lo_pct: float
    hi_pct: float
    confidence: float

    @property
    def width_pct(self) -> float:
        """Interval width — the sample-noise magnitude."""
        return self.hi_pct - self.lo_pct

    def excludes_zero(self) -> bool:
        """True when the interval resolves the sign of the effect."""
        return self.lo_pct > 0.0 or self.hi_pct < 0.0


@dataclass(frozen=True)
class BootstrapInterval:
    """Percentile-bootstrap interval for an arbitrary statistic (raw units).

    Unlike :class:`ConfidenceInterval` (whose fields are percent-denominated
    speedups), this carries the statistic in whatever units the caller's
    function returns — e.g. IPC for sampled-simulation reconstruction.
    """

    point: float
    lo: float
    hi: float
    confidence: float

    @property
    def width(self) -> float:
        """Interval width — the resampling-noise magnitude."""
        return self.hi - self.lo

    def rel_width(self) -> float:
        """Width as a fraction of the point estimate (0 when point is 0)."""
        return self.width / abs(self.point) if self.point else 0.0

    def contains(self, value: float) -> bool:
        """True when ``value`` falls inside the interval (inclusive)."""
        return self.lo <= value <= self.hi


def percentile_bootstrap(
    n: int,
    statistic: Callable[[list[int]], float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bounds of ``statistic`` over seeded resamples of ``n`` indices.

    Each of the ``resamples`` draws is a list of ``n`` indices into the
    sample, with replacement — exactly the indices ``[rng.randrange(n) for
    _ in range(n)]`` gives, resample after resample, with ``rng =
    random.Random(seed)``.  CPython's ``randrange(n)`` draws
    ``getrandbits(n.bit_length())`` until the value is below ``n``, so the
    indices are one filtered stream of such draws, produced at C speed.
    Returns ``(lo, hi)``, the two-sided ``confidence`` bounds of the sorted
    statistics.
    """
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    getrandbits = random.Random(seed).getrandbits
    draws = filter(n.__gt__, map(getrandbits, repeat(n.bit_length())))
    stats = sorted(statistic(list(islice(draws, n))) for _ in range(resamples))
    alpha = (1.0 - confidence) / 2.0
    return (stats[int(alpha * resamples)],
            stats[min(resamples - 1, int((1.0 - alpha) * resamples))])


def bootstrap_statistic(
    samples: Sequence[T],
    statistic: Callable[[Sequence[T]], float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> BootstrapInterval:
    """Percentile bootstrap CI of ``statistic`` over ``samples``.

    ``statistic`` receives a resampled-with-replacement list the same length
    as ``samples`` and must return one number; the point estimate is the
    statistic of the original sample.  Deterministic for a fixed ``seed``.
    A single-element sample yields a degenerate (zero-width) interval —
    every resample is the sample itself.
    """
    if not samples:
        raise ValueError("no samples to bootstrap")
    lo, hi = percentile_bootstrap(
        len(samples), lambda idx: statistic([samples[i] for i in idx]),
        confidence=confidence, resamples=resamples, seed=seed)
    return BootstrapInterval(statistic(samples), lo, hi, confidence)


def _geomean_pct(speedups: Sequence[float]) -> float:
    return 100.0 * (math.exp(sum(math.log(s) for s in speedups) / len(speedups)) - 1.0)


def bootstrap_geomean(
    speedups: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile bootstrap CI of the geomean of per-workload speedups."""
    if not speedups:
        raise ValueError("no speedups to bootstrap")
    if any(s <= 0 for s in speedups):
        raise ValueError("speedups must be positive ratios")
    lo, hi = percentile_bootstrap(
        len(speedups), lambda idx: _geomean_pct([speedups[i] for i in idx]),
        confidence=confidence, resamples=resamples, seed=seed)
    return ConfidenceInterval(_geomean_pct(speedups), lo, hi, confidence)


def paired_difference_ci(
    speedups_a: Sequence[float],
    speedups_b: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Bootstrap CI of the paired geomean ratio A/B (same workloads), in %.

    Positive means policy A is faster than policy B.
    """
    if len(speedups_a) != len(speedups_b):
        raise ValueError("paired samples must align")
    ratios = [a / b for a, b in zip(speedups_a, speedups_b)]
    return bootstrap_geomean(ratios, confidence=confidence, resamples=resamples, seed=seed)
