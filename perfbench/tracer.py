"""Span tracer for the traced benchmark run, wrapped around the program from outside.

Nothing in ``src/`` changes.  :class:`Tracer` patches the public entry
points of each layer (module attributes and class methods) and, right after
every ``build_engine`` call, the per-engine component seams that
``repro.obs.profiling.Probe`` also uses.  Every wrapper pushes a frame on
one stack; on return it charges its *self* time (duration minus the time of
child spans) to its layer and its full duration to the parent frame.

Two rules keep the fused kernels on:

* ``attach_probe`` / ``engine.probe`` is never used — a set probe drops
  ``drive_packed`` to the stepwise loop;
* ``_policy_decide`` is left alone for the stock perceptron filter
  (DRIPPER), whose decision the fused dispatch inlines only while the seam
  is the filter's own bound ``decide``.

Coarse spans (figures, simulations, packs, mixes, sampling, cache I/O) are
kept in memory as records and written out by :meth:`Tracer.dump`; the hot
seams (translation, walks, hierarchy accesses, prefetcher, epochs, trace
records) are only aggregated, since they fire millions of times.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.core.filter import PerceptronFilter
from repro.cpu import multicore, simulator
from repro.experiments import figures, parallel, runner, sampling
from repro.experiments.cache import ResultCache
from repro.workloads import packed
from repro.workloads.synthetic import SyntheticWorkload

#: layer names whose self time the traced run reports (see :func:`layer_metrics`)
TIMED_LAYERS = (
    "experiments.figure", "experiments.cache", "experiments.sampling.plan",
    "experiments.sampling.reconstruct", "workloads.generate", "workloads.pack",
    "cpu.build", "cpu.collect", "cpu.epoch", "cpu.mix", "vm.translate",
    "vm.walk", "mem.access", "prefetch.on_access", "core.decide",
)


class Tracer:
    """Self-time accounting over a stack of nested spans."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: coarse spans: (name, start, end, parent index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        #: inclusive seconds of every top-level simulation (cell)
        self.cell_seconds: list[float] = []
        #: single-core and per-core results the traced job produced
        self.results: list[Any] = []
        #: phase plans the sampled runs made
        self.plans: list[Any] = []
        #: every engine built under the tracer
        self.engines: list[Any] = []
        self.cache = {"hits": 0, "misses": 0, "stores": 0}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------

    def hot(self, layer: str, fn: Callable) -> Callable:
        """Aggregate-only wrapper for a seam that fires per record."""
        stack, self_s, calls, clock = self.stack, self.self_s, self.calls, perf_counter

        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return wrapped

    def span(self, layer: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Wrapper that also records a span (for calls made a few hundred times)."""
        def wrapped(*args, **kwargs):
            frame = [0.0]
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append((layer, 0.0, 0.0, parent))
            self._open.append(index)
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                self.stack.pop()
                self._open.pop()
                self.spans[index] = (layer, start, end, parent)
                self.self_s[layer] += elapsed - frame[0]
                self.calls[layer] += 1
                if self.stack:
                    self.stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result, elapsed)
            return result

        return wrapped

    def records(self, iterator):
        """Time every ``next()`` of a trace generator as ``workloads.generate``."""
        stack, self_s, calls, clock = self.stack, self.self_s, self.calls, perf_counter
        advance = iterator.__next__
        while True:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                record = advance()
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s["workloads.generate"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            calls["workloads.generate"] += 1
            yield record

    def root(self, fn: Callable) -> tuple[Any, float]:
        """Run ``fn`` as the root span; returns (its result, traced wall seconds)."""
        index = len(self.spans)
        self.spans.append(("job", 0.0, 0.0, -1))
        self._open.append(index)
        self.stack.append([0.0])
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            self.stack.pop()
            self._open.pop()
        self.spans[index] = ("job", start, start + wall, -1)
        return result, wall

    # -- installation -----------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer entry point the traced run accounts for."""
        def on_cell(result, elapsed):
            self.cell_seconds.append(elapsed)
            self.results.append(result)

        def on_mix(result, elapsed):
            self.cell_seconds.append(elapsed)
            self.results.extend(result.results)

        simulate = self.span("cpu.simulate", simulator.simulate, on_cell)
        for module in (simulator, runner, parallel, multicore):
            self._patch(module, "simulate", simulate)
        build = self.span("cpu.build", simulator.build_engine,
                          lambda engine, _elapsed: self.wrap_engine(engine))
        for module in (simulator, multicore):
            self._patch(module, "build_engine", build)
        collect = self.span("cpu.collect", simulator.collect_result)
        for module in (simulator, multicore):
            self._patch(module, "collect_result", collect)
        get_packed = self.span("workloads.pack", packed.get_packed)
        for module in (packed, sampling):
            self._patch(module, "get_packed", get_packed)
        self._patch(multicore, "simulate_mix",
                    self.span("cpu.mix", multicore.simulate_mix, on_mix))
        self._patch(sampling, "plan_phases",
                    self.span("experiments.sampling.plan", sampling.plan_phases,
                              lambda plan, _elapsed: self.plans.append(plan)))
        self._patch(sampling, "reconstruct",
                    self.span("experiments.sampling.reconstruct", sampling.reconstruct))

        def on_get(result, _elapsed):
            self.cache["misses" if result is None else "hits"] += 1

        def on_put(_result, _elapsed):
            self.cache["stores"] += 1

        self._patch(ResultCache, "get", self.span("experiments.cache", ResultCache.get, on_get))
        self._patch(ResultCache, "put", self.span("experiments.cache", ResultCache.put, on_put))
        for name in ("fig2_motivation_ipc", "fig9_scheme_comparison", "fig19_multicore"):
            self._patch(figures, name, self.span("experiments.figure", getattr(figures, name)))
        generate = SyntheticWorkload.generate
        self._patch(SyntheticWorkload, "generate",
                    lambda workload: self.records(generate(workload)))

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def wrap_engine(self, engine) -> None:
        """Wrap one freshly built engine's component seams."""
        self.engines.append(engine)
        for seam, layer in (
            ("_translate_data", "vm.translate"),
            ("_translate_instruction", "vm.translate"),
            ("_walk", "vm.walk"),
            ("_mem_load", "mem.access"),
            ("_mem_store", "mem.access"),
            ("_mem_ifetch", "mem.access"),
            ("_pf_on_access", "prefetch.on_access"),
            ("_end_epoch", "cpu.epoch"),
        ):
            setattr(engine, seam, self.hot(layer, getattr(engine, seam)))
        policy = engine.policy
        fusible = (isinstance(policy, PerceptronFilter)
                   and type(policy).decide is PerceptronFilter.decide)
        if not fusible:
            engine._policy_decide = self.hot("core.decide", engine._policy_decide)

    # -- output -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the coarse spans and the per-layer totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans), default=0.0)
        payload = {
            "spans": [
                {"name": name, "start_s": start - origin, "end_s": end - origin,
                 "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _tail(values: list[float]) -> float:
    """The highest order statistic with at least ten values above it.

    That is the 11th-largest value; below 21 values it would fall under
    the median, which stands in instead.
    """
    ordered = sorted(values)
    return ordered[max(len(ordered) // 2, len(ordered) - 11)] if ordered else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  drives: dict[str, float]) -> tuple[dict, float]:
    """Per-layer metrics of one traced job, plus the unnamed residual seconds.

    The residual is the traced wall time not covered by any named layer's
    self time: the drive loops themselves (fused kernel, mix steppers,
    generator loop), plus the runner code between calls.  It is reported as
    ``cpu.drive_self_s``, so the named self times and it sum to the traced
    wall exactly; a negative residual means double counting.
    """
    s, c = tracer.self_s, tracer.calls
    residual = traced_wall - sum(s[layer] for layer in TIMED_LAYERS)
    results = tracer.results
    instructions = sum(r.instructions for r in results)

    def total(attr: str) -> float:
        return float(sum(getattr(r, attr) for r in results))

    def per_instruction_mean(attr: str) -> float:
        if not instructions:
            return 0.0
        return sum(getattr(r, attr) * r.instructions for r in results) / instructions

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    records = sum(e.hierarchy.l1d.demand_stats.accesses for e in tracer.engines)
    useful, useless = total("prefetch_useful"), total("prefetch_useless")
    pgc_useful, pgc_useless = total("pgc_useful"), total("pgc_useless")
    simulated = sum(p.simulated_instructions() for p in tracer.plans)
    profiled = sum(p.total_instructions for p in tracer.plans)
    values = {
        "workloads.generate_s": (s["workloads.generate"], "s"),
        "workloads.records": (c["workloads.generate"], "count"),
        "workloads.pack_s": (s["workloads.pack"], "s"),
        "workloads.pack_mb": (_pack_bytes() / 1e6, "MB"),
        "cpu.build_s": (s["cpu.build"], "s"),
        "cpu.collect_s": (s["cpu.collect"], "s"),
        "cpu.drive_self_s": (residual, "s"),
        "cpu.records_per_s": (ratio(records, residual + s["cpu.mix"]), "1/s"),
        "cpu.epochs": (c["cpu.epoch"], "count"),
        "cpu.epoch_s": (s["cpu.epoch"], "s"),
        "cpu.mix_s": (s["cpu.mix"], "s"),
        "vm.translate_calls": (c["vm.translate"], "count"),
        "vm.translate_s": (s["vm.translate"], "s"),
        "vm.walk_calls": (c["vm.walk"], "count"),
        "vm.walk_s": (s["vm.walk"], "s"),
        "vm.dtlb_mpki": (per_instruction_mean("dtlb_mpki"), "per_ki"),
        "vm.stlb_mpki": (per_instruction_mean("stlb_mpki"), "per_ki"),
        "vm.demand_walks": (total("demand_walks"), "count"),
        "vm.speculative_walks": (total("speculative_walks"), "count"),
        "mem.access_calls": (c["mem.access"], "count"),
        "mem.access_s": (s["mem.access"], "s"),
        "mem.l1d_mpki": (per_instruction_mean("l1d_mpki"), "per_ki"),
        "mem.llc_mpki": (per_instruction_mean("llc_mpki"), "per_ki"),
        "mem.dram_reads": (total("dram_reads"), "count"),
        "prefetch.on_access_calls": (c["prefetch.on_access"], "count"),
        "prefetch.on_access_s": (s["prefetch.on_access"], "s"),
        "prefetch.fills": (total("prefetch_fills"), "count"),
        "prefetch.accuracy": (ratio(useful, useful + useless), "ratio"),
        "prefetch.late": (total("prefetch_late"), "count"),
        "core.pgc_candidates": (total("pgc_candidates"), "count"),
        "core.pgc_issued": (total("pgc_issued"), "count"),
        "core.pgc_discarded": (total("pgc_discarded"), "count"),
        "core.pgc_accuracy": (ratio(pgc_useful, pgc_useful + pgc_useless), "ratio"),
        "core.decide_s": (s["core.decide"], "s"),
        "experiments.cells": (len(tracer.cell_seconds), "count"),
        "experiments.cell_s_p50": (_median(tracer.cell_seconds), "s"),
        "experiments.cell_s_tail": (_tail(tracer.cell_seconds), "s"),
        "experiments.figure_self_s": (s["experiments.figure"], "s"),
        "experiments.sampling.plan_s": (s["experiments.sampling.plan"], "s"),
        "experiments.sampling.reconstruct_s": (s["experiments.sampling.reconstruct"], "s"),
        "experiments.sampling.sim_fraction": (ratio(simulated, profiled), "ratio"),
        "experiments.cache.hits": (tracer.cache["hits"], "count"),
        "experiments.cache.misses": (tracer.cache["misses"], "count"),
        "experiments.cache.stores": (tracer.cache["stores"], "count"),
        "experiments.cache_s": (s["experiments.cache"], "s"),
        "obs.traced_wall_s": (traced_wall, "s"),
        "obs.trace_overhead_pct": (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%"),
    }
    for mode in DRIVE_MODES:
        values[f"cpu.drives.{mode}"] = (drives.get(mode, 0), "count")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}, residual


#: sim.drives modes reported as cpu.drives.<mode>
DRIVE_MODES = ("generator", "fused", "stepwise", "mix-packed", "sampled")


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def _pack_bytes() -> float:
    from repro.obs.metrics import get_metrics

    return get_metrics().gauge("pack_cache.bytes").value()
