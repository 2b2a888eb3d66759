"""The benchmark's workloads: their inputs, timed operations and recorded references.

Each workload is a :class:`Workload` subclass.  ``setup(seed)`` builds the
inputs (workload objects, packed traces) and loads the recorded expected
results; ``operations()`` lists the timed operations, each a thunk that
returns its outputs in canonical JSON form, keyed by output; ``job()`` runs
every operation once; ``reference()`` computes the outputs again by an
independent path (the generator loop for packed cells and mixes, the packed
kernel for the generator-loop exhibits; sampled cells are simply rerun),
used to record ``refs/*.json`` and to check exhibits seeds that have no
recorded entry.

The benchmark runs two workloads, ``exhibits`` and ``packed``.  ``packed``
is the union of three parts that each keep their own reference file:
``longtrace``, ``sampled`` and ``mixes``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import asdict
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from repro.cpu import simulator
from repro.cpu.fastpath_mix import clear_overflow_tails
from repro.cpu.simulator import SimConfig
from repro.experiments import figures, parallel
from repro.experiments.cache import ResultCache
from repro.experiments.runner import policy_factory
from repro.experiments.sampling import SamplingConfig
from repro.workloads import by_name, make_mixes, motivation_workloads, seen_workloads
from repro.workloads.packed import get_packed

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

#: seed used when ``--seed`` is not given (README.md names the held-out seed)
DEFAULT_SEED = 1

PREFETCHER = "berti"
#: exhibits: Figs. 2 and 9 for Berti on short cells through the default
#: (generator-loop, serial, uncached) path
EXHIBIT_SCALE = dict(n_workloads=12, warmup_instructions=1_000, sim_instructions=3_000)
EXHIBITS = ("fig2_motivation_ipc", "fig9_scheme_comparison")
#: longtrace / sampled: the same eight cells over one window
LONG_TRACES = ("astar", "bfs.kron", "omnetpp", "mcf")
LONG_POLICIES = ("discard", "dripper")
LONG_WARMUP, LONG_SIM = 10_000, 60_000
#: sampled: each cell under these SamplingConfig seeds (a fixed panel;
#: refs/sampled.json records all four, the packed workload runs PACKED_SAMPLING_SEEDS)
SAMPLING_SEEDS = (0, 1, 2, 3)
PACKED_SAMPLING_SEEDS = (0, 1)
#: mixes: Fig. 19 on two 4-core mixes drawn with fig19_multicore's own seed
MIX = dict(n_mixes=2, cores=4, warmup_instructions=1_000, sim_instructions=3_000, seed=42)
MIX_POLICIES = ("discard", "dripper")


def canonical(value: Any) -> Any:
    """The JSON round-trip of ``value`` (tuples become lists; floats are exact)."""
    return json.loads(json.dumps(value))


def fields(result) -> dict:
    """A SimResult's fields as canonical JSON."""
    return canonical(asdict(result))


def digest(result) -> str:
    """A short content hash of a SimResult's fields."""
    text = json.dumps(asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_refs(name: str) -> dict:
    """A recorded reference file ({} when it has not been recorded)."""
    path = REFS / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def long_config(policy: str, **overrides) -> SimConfig:
    return SimConfig(
        prefetcher=PREFETCHER, policy_factory=policy_factory(policy, PREFETCHER),
        warmup_instructions=LONG_WARMUP, sim_instructions=LONG_SIM, **overrides)


class _Capture:
    """Temporarily record what a module-level function returns (and its arguments)."""

    def __init__(self, owner, name: str):
        self.owner, self.name = owner, name
        self.calls: list[tuple[tuple, Any]] = []

    def __enter__(self):
        self.original = getattr(self.owner, self.name)

        def recording(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.calls.append((args, result))
            return result

        setattr(self.owner, self.name, recording)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.original)


class Workload:
    name = ""
    #: recorded expected outputs for the current inputs (None: compute live)
    expected: Optional[dict] = None

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def operations(self) -> list[tuple[str, Callable[[], dict[str, Any]]]]:
        """The timed operations: (name, thunk returning its outputs)."""
        raise NotImplementedError

    def job(self) -> tuple[dict[str, float], dict[str, Any]]:
        """Every operation once: (host seconds by operation, all outputs)."""
        seconds, outputs = {}, {}
        for name, operation in self.operations():
            start = perf_counter()
            outputs.update(operation())
            seconds[name] = perf_counter() - start
        return seconds, outputs

    def reference(self) -> dict[str, Any]:
        raise NotImplementedError

    def accuracy(self, outputs: dict[str, Any]) -> Optional[tuple[float, float]]:
        """(ipc_rel_err, ci_coverage) when the job itself ran sampled cells."""
        return None

    def cell_errors(self, outputs: dict[str, Any]) -> dict[str, float]:
        """Mean sampled-IPC error per "trace/policy" cell ({} without sampled cells)."""
        return {}


# ---------------------------------------------------------------------------


class _PackedScale(figures.Scale):
    """A Scale whose RunSpecs drive the packed kernel (bit-identical results)."""

    def spec(self, **kwargs):
        return super().spec(packed=True, **kwargs)


class Exhibits(Workload):
    name = "exhibits"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.scale = figures.Scale(seed=seed, **EXHIBIT_SCALE)
        # the exhibits draw their samples from these (cached) registry sets
        motivation_workloads()
        seen_workloads()
        self.expected = load_refs("exhibits").get("seeds", {}).get(str(seed))

    @staticmethod
    def _exhibit(scale, exhibit: str) -> dict[str, Any]:
        with _Capture(figures, "run_policies") as cap:
            data = getattr(figures, exhibit)(scale, prefetchers=(PREFETCHER,))
        outputs = {exhibit: canonical(data)}
        for _args, by_policy in cap.calls:
            for policy, results in by_policy.items():
                for r in results:
                    outputs[f"{exhibit}/{policy}/{r.workload}"] = [r.ipc, digest(r)]
        return outputs

    def operations(self):
        return [(exhibit, partial(self._exhibit, self.scale, exhibit)) for exhibit in EXHIBITS]

    def reference(self):
        scale = _PackedScale(seed=self.seed, **EXHIBIT_SCALE)
        outputs = {}
        for exhibit in EXHIBITS:
            outputs.update(self._exhibit(scale, exhibit))
        return outputs


class LongTrace(Workload):
    name = "longtrace"

    def setup(self, seed: int) -> None:
        self.cells = [(by_name(t), t, p) for t in LONG_TRACES for p in LONG_POLICIES]
        pack_long_traces()
        self.expected = load_refs("longtrace").get("cells", {})

    @staticmethod
    def _cell(workload, key: str, config: SimConfig) -> dict[str, Any]:
        return {key: fields(simulator.simulate(workload, config))}

    def _operations(self, packed: bool):
        return [(f"{trace}/{policy}",
                 partial(self._cell, workload, f"{trace}/{policy}",
                         long_config(policy, packed=packed)))
                for workload, trace, policy in self.cells]

    def operations(self):
        return self._operations(packed=True)

    def reference(self):
        outputs = {}
        for _name, operation in self._operations(packed=False):
            outputs.update(operation())
        return outputs


def pack_long_traces() -> None:
    for trace in LONG_TRACES:
        get_packed(by_name(trace), LONG_WARMUP, LONG_SIM)


class Sampled(Workload):
    name = "sampled"

    def __init__(self, sampling_seeds: tuple[int, ...] = SAMPLING_SEEDS):
        self.sampling_seeds = sampling_seeds

    def setup(self, seed: int) -> None:
        self.cells = [(by_name(t), t, p) for t in LONG_TRACES for p in LONG_POLICIES]
        pack_long_traces()
        self.expected = load_refs("sampled").get("cells", {})
        self.full_ipc = {key: cell["ipc"]
                         for key, cell in load_refs("longtrace").get("cells", {}).items()}

    def operations(self):
        return [(f"{trace}/{policy}/s{sampling_seed}",
                 partial(LongTrace._cell, workload, f"{trace}/{policy}/s{sampling_seed}",
                         long_config(policy, packed=True,
                                     sampling=SamplingConfig(seed=sampling_seed))))
                for workload, trace, policy in self.cells
                for sampling_seed in self.sampling_seeds]

    def reference(self):
        return self.job()[1]

    def accuracy(self, outputs):
        return sampled_accuracy(self.own(outputs), self.full_ipc)

    def cell_errors(self, outputs):
        return cell_errors(self.own(outputs), self.full_ipc)

    def own(self, outputs: dict[str, Any]) -> dict[str, Any]:
        """The sampled-cell entries of ``outputs``."""
        keys = {name for name, _ in self.operations()}
        return {key: value for key, value in outputs.items() if key in keys}


def sampled_accuracy(outputs: dict[str, Any], full_ipc: dict[str, float]) -> tuple[float, float]:
    """Mean relative IPC error and CI coverage of sampled cells vs full runs."""
    errors = sampled_errors(outputs, full_ipc)
    covered = sum(
        result["ipc_ci_lo"] <= full_ipc[key.rsplit("/", 1)[0]] <= result["ipc_ci_hi"]
        for key, result in outputs.items())
    return sum(errors.values()) / len(errors), covered / len(errors)


def sampled_errors(outputs: dict[str, Any], full_ipc: dict[str, float]) -> dict[str, float]:
    """|sampled - full| / full IPC of every sampled output, by output key."""
    errors = {}
    for key, result in outputs.items():
        full = full_ipc[key.rsplit("/", 1)[0]]
        errors[key] = abs(result["ipc"] - full) / full
    return errors


def cell_errors(outputs: dict[str, Any], full_ipc: dict[str, float]) -> dict[str, float]:
    """Mean relative IPC error per longtrace cell ("trace/policy") over the seed panel."""
    per_cell: dict[str, list[float]] = {}
    for key, error in sampled_errors(outputs, full_ipc).items():
        per_cell.setdefault(key.rsplit("/", 1)[0], []).append(error)
    return {cell: sum(e) / len(e) for cell, e in per_cell.items()}


class Mixes(Workload):
    name = "mixes"

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed: int) -> None:
        self.mixes = make_mixes(MIX["n_mixes"], MIX["cores"], MIX["seed"])
        for workload in {w.name: w for mix in self.mixes for w in mix}.values():
            warmup, sim = MIX["warmup_instructions"], MIX["sim_instructions"]
            if workload.suite.startswith("QMM"):
                warmup, sim = warmup // 2, sim // 2
            get_packed(workload, warmup, sim)
        self.expected = load_refs("mixes").get("outputs", {})

    def _run(self, packed: bool) -> dict[str, Any]:
        clear_overflow_tails()
        self.scratch.mkdir(parents=True, exist_ok=True)
        cache_dir = tempfile.mkdtemp(dir=self.scratch)
        try:
            with _Capture(parallel, "run_cells") as iso, \
                    _Capture(parallel, "run_mix_cells") as mix:
                data = figures.fig19_multicore(
                    policies=MIX_POLICIES, packed=packed, jobs=1,
                    cache=ResultCache(cache_dir), **MIX)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        outputs = {"fig19_multicore": canonical(data)}
        for (cells, *_), results in iso.calls:
            for cell, r in zip(cells, results):
                outputs[f"iso/{cell.policy}/{cell.workload}"] = fields(r)
        for (cells, *_), results in mix.calls:
            for cell, r in zip(cells, results):
                outputs[f"mix/{cell.policy}/{cell.mix_id}"] = [fields(c) for c in r.results]
        return outputs

    def operations(self):
        return [("fig19_multicore", partial(self._run, packed=True))]

    def reference(self):
        return self._run(packed=False)


class Packed(Workload):
    """longtrace, sampled (seeds PACKED_SAMPLING_SEEDS) and mixes as one workload.

    Its operations are the parts' operations in turn; the expected results
    are the union of the three reference files (their keys are disjoint).
    """

    name = "packed"

    def __init__(self, scratch: Path):
        self.sampled = Sampled(PACKED_SAMPLING_SEEDS)
        self.parts = (LongTrace(), self.sampled, Mixes(scratch))

    def setup(self, seed: int) -> None:
        self.expected = {}
        for part in self.parts:
            part.setup(seed)
            self.expected.update(part.expected)

    def operations(self):
        return [op for part in self.parts for op in part.operations()]

    def reference(self):
        outputs = {}
        for part in self.parts:
            outputs.update(part.reference())
        return outputs

    def accuracy(self, outputs):
        return self.sampled.accuracy(outputs)

    def cell_errors(self, outputs):
        return self.sampled.cell_errors(outputs)


def make(name: str, scratch: Path) -> Workload:
    """The named workload or part (``scratch`` holds temporary result caches)."""
    if name == "mixes":
        return Mixes(scratch)
    if name == "packed":
        return Packed(scratch)
    for cls in (Exhibits, LongTrace, Sampled):
        if cls.name == name:
            return cls()
    raise KeyError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


#: the benchmark's workloads
NAMES = ("exhibits", "packed")
#: the recorded reference files, one per part (longtrace before sampled, whose
#: accuracy is measured against it)
REF_FILES = ("exhibits", "longtrace", "sampled", "mixes")
