"""Sampling profiler for the record kernel that actually runs.

Inside its ``with`` block a :class:`Probe` arms ``setitimer(ITIMER_PROF)``.
Each ``SIGPROF`` (every :data:`INTERVAL` of process CPU time, or every
kernel tick if that is coarser) charges one sample to the section of the
innermost kernel frame on the stack.  In :func:`repro.cpu.fastpath.core_stepper`
and ``CoreEngine._dispatch_prefetches`` that is the section the running
line falls in, opened by the last ``# profile: <section>`` comment above
it; :func:`repro.cpu.simulator.collect_result` is
``collect``; with no kernel frame on the stack the sample is ``other``.  So
a callee's time (a walk, an L2 access) goes to the kernel line that called
it.  Nothing in the simulator is wrapped, so a profiled run drives the same
kernel and returns the same result, and the handler keeps no frame, so the
engine is still freed by reference counting.  DESIGN.md §6 says what each
section covers and where the attribution is approximate.
"""

from __future__ import annotations

import inspect
import signal
from functools import cache
from types import CodeType
from typing import Any, Optional

#: seconds of process CPU time between samples
INTERVAL = 0.001

#: the named sections, in the order the kernel runs them
SECTIONS = ("front-end", "dtlb+walks", "l1d-hit", "miss-path", "prefetcher",
            "pgc-filter", "epoch-hook", "collect")
#: samples that no kernel frame claims
OTHER = "other"

_MARKER = "# profile: "


def _instruction_sections(code: CodeType) -> list[str]:
    """The section of each instruction of ``code``, by bytecode offset // 2.

    An instruction without a line (some loop back-edges) keeps the section
    of the one before it.
    """
    table = [OTHER] * (len(code.co_code) // 2)
    try:
        lines, first = inspect.getsourcelines(code)
    except OSError:  # no source on disk: every sample is ``other``
        return table
    by_line: dict[int, str] = {}
    section = OTHER
    for lineno, text in enumerate(lines, first):
        _, marker, rest = text.partition(_MARKER)
        if marker:
            section = rest.strip()
            if section not in SECTIONS:
                raise ValueError(f"{code.co_name}:{lineno}: unknown profile section {section!r}")
        by_line[lineno] = section
    section = OTHER
    for start, end, lineno in code.co_lines():
        if lineno is not None:
            section = by_line.get(lineno, OTHER)
        table[start // 2:end // 2] = [section] * ((end - start) // 2)
    return table


@cache
def _code_map() -> dict[CodeType, Any]:
    """Kernel code object -> its section, or the section of each instruction."""
    from repro.cpu import fastpath
    from repro.cpu.core import CoreEngine
    from repro.cpu.simulator import collect_result

    kernels = (fastpath.core_stepper.__code__, CoreEngine._dispatch_prefetches.__code__)
    codes: dict[CodeType, Any] = {code: _instruction_sections(code) for code in kernels}
    codes[collect_result.__code__] = "collect"
    return codes


class Probe:
    """Per-section sample counter, sampling while entered as a context manager."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = dict.fromkeys((*SECTIONS, OTHER), 0)
        self._codes: dict[CodeType, Any] = {}
        self._saved: Optional[tuple] = None

    def _sample(self, signum: int, frame) -> None:
        codes = self._codes
        section = OTHER
        while frame is not None:
            where = codes.get(frame.f_code)
            if where is not None:
                section = where if isinstance(where, str) else where[frame.f_lasti >> 1]
                break
            frame = frame.f_back
        self.counts[section] += 1

    def __enter__(self) -> "Probe":
        if self._saved is not None:
            raise RuntimeError("this probe is already sampling")
        self._codes = _code_map()
        handler = signal.signal(signal.SIGPROF, self._sample)
        self._saved = (handler, signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL))
        return self

    def __exit__(self, *exc: Any) -> None:
        handler, timer = self._saved
        self._saved = None
        # timer first: a SIGPROF already pending is handled by _sample
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, signal.SIG_DFL if handler is None else handler)

    def reset(self) -> None:
        """Drop all samples."""
        for section in self.counts:
            self.counts[section] = 0

    @property
    def samples(self) -> int:
        """Samples taken over every ``with`` block so far."""
        return sum(self.counts.values())

    @property
    def named_share(self) -> float:
        """Fraction of the samples that a named section claimed."""
        total = self.samples
        return 1.0 - self.counts[OTHER] / total if total else 0.0

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-section ``{samples, share}``, most sampled first."""
        total = self.samples
        ranked = sorted(self.counts.items(), key=lambda item: -item[1])
        return {section: {"samples": n, "share": n / total if total else 0.0}
                for section, n in ranked}

    def format_breakdown(self) -> str:
        """Human-readable per-section table (printed at the end of a run)."""
        total = self.samples
        if not total:
            return "profile: no samples recorded"
        lines = [f"profile: {total} samples of process CPU time, "
                 f"one per {INTERVAL * 1000:g} ms or kernel tick"]
        lines.append(f"  {'section':<11}  {'samples':>7}  {'share':>6}")
        for section, info in self.breakdown().items():
            lines.append(f"  {section:<11}  {info['samples']:>7}  {100 * info['share']:>5.1f}%")
        lines.append(f"  named sections: {100 * self.named_share:.1f}% of samples")
        return "\n".join(lines)
