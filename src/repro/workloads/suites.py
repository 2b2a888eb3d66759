"""Per-suite synthetic workload builders.

Each builder produces a :class:`~repro.workloads.synthetic.SyntheticWorkload`
whose pattern mix is chosen to land in the same behavioural region as the
suite it stands in for (see DESIGN.md §1 for the substitution argument):

* SPEC — named benchmarks with hand-picked profiles; the workloads named in
  Figure 2 get the page-cross-friendliness the paper reports for them
  (astar friendly, sphinx3/fotonik3d_s hostile, ...);
* GAP / LIGRA — CSR graph traversals, flavoured by graph (road = local =
  friendly, web/twitter/kron = scattered = hostile);
* PARSEC — streaming/mixed parallel kernels;
* GKB5 — phased mixes (Geekbench's sub-test structure);
* QMM — short industrial-style traces across a parameter grid.

All random parameter draws happen *eagerly* at build time so a workload's
``generate()`` yields the identical trace on every replay (the multi-core
methodology replays traces until all cores finish).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.workloads.patterns import (
    Alternating,
    Gather,
    GraphCsr,
    PageTiled,
    Pattern,
    PointerChase,
    Stream,
    Strided,
)
from repro.workloads.synthetic import SyntheticWorkload

#: default phase length for single-phase workloads (cycles forever anyway)
_ONE_PHASE = 1 << 30
_PHASE = 24_000


def bind(cls: type[Pattern], region: int, **kwargs) -> Callable[[], Pattern]:
    """Pattern factory with all parameters bound now (replay determinism)."""
    return lambda: cls(region, **kwargs)


def _jitter(rng: random.Random, value: int, spread: float = 0.25) -> int:
    return max(1, int(value * (1.0 + spread * (2 * rng.random() - 1.0))))


# ---------------------------------------------------------------------------
# SPEC profiles


def _spec_phases(benchmark: str, rng: random.Random):
    """Return (phases, mean_gap) for a SPEC benchmark profile."""
    fp = lambda base: _jitter(rng, base)  # noqa: E731 - evaluated eagerly below

    if benchmark == "astar":
        return [
            (bind(Stream, 0, stride_lines=1, footprint_pages=fp(4096)), _PHASE),
            (bind(PointerChase, 1, footprint_pages=fp(2048)), _PHASE // 2),
        ], 2.5
    if benchmark == "lbm":
        return [(bind(Stream, 0, stride_lines=2, footprint_pages=fp(6144)), _ONE_PHASE)], 6.0
    if benchmark == "libquantum":
        return [(bind(Stream, 0, stride_lines=1, footprint_pages=fp(8192)), _ONE_PHASE)], 5.0
    if benchmark == "milc":
        return [(bind(Strided, 0, stride_lines=44, footprint_pages=fp(6144)), _ONE_PHASE)], 5.5
    if benchmark == "leslie3d":
        return [
            (bind(Stream, 0, stride_lines=3, footprint_pages=fp(4096)), _PHASE),
            (bind(Strided, 1, stride_lines=40, footprint_pages=fp(4096)), _PHASE),
        ], 4.0
    if benchmark == "bwaves":
        return [(bind(Stream, 0, stride_lines=1, footprint_pages=fp(8192)), _ONE_PHASE)], 5.0
    if benchmark == "GemsFDTD":
        return [(bind(Strided, 0, stride_lines=36, footprint_pages=fp(8192)), _ONE_PHASE)], 4.0
    if benchmark == "cactuBSSN":
        return [(bind(Strided, 0, stride_lines=48, footprint_pages=fp(6144)), _ONE_PHASE)], 4.0
    if benchmark == "sphinx3":
        return [(bind(PageTiled, 0, footprint_pages=fp(4096), burst_lines=40), _ONE_PHASE)], 2.5
    if benchmark == "fotonik3d_s":
        return [(bind(PageTiled, 0, footprint_pages=fp(8192), burst_lines=56), _ONE_PHASE)], 2.0
    if benchmark == "soplex":
        return [
            (bind(PageTiled, 0, footprint_pages=fp(4096), burst_lines=24), _PHASE),
            (bind(Alternating, 1, footprint_pages=fp(4096), period=2_000), _PHASE),
        ], 2.5
    if benchmark == "zeusmp":
        return [(bind(PageTiled, 0, footprint_pages=fp(3072), burst_lines=48), _ONE_PHASE)], 3.0
    if benchmark == "wrf":
        return [
            (bind(PageTiled, 0, footprint_pages=fp(4096), burst_lines=32), _PHASE),
            (bind(Stream, 1, stride_lines=1, footprint_pages=fp(2048)), _PHASE // 2),
        ], 3.0
    if benchmark == "mcf":
        return [(bind(PointerChase, 0, footprint_pages=fp(12288)), _ONE_PHASE)], 2.0
    if benchmark == "omnetpp":
        return [(bind(Gather, 0, footprint_pages=fp(8192)), _ONE_PHASE)], 2.5
    if benchmark == "xalancbmk":
        return [
            (bind(Gather, 0, footprint_pages=fp(4096)), _PHASE),
            (bind(Alternating, 1, footprint_pages=fp(2048), period=1_500, burst_lines=32), _PHASE),
        ], 3.0
    if benchmark == "gcc":
        return [
            (bind(Stream, 0, stride_lines=1, footprint_pages=fp(1024)), _PHASE // 2),
            (bind(Gather, 1, footprint_pages=fp(4096)), _PHASE),
            (bind(PageTiled, 2, footprint_pages=fp(2048), burst_lines=32), _PHASE),
        ], 3.5
    if benchmark == "perlbench":
        return [
            (bind(Gather, 0, footprint_pages=fp(2048)), _PHASE),
            (bind(Stream, 1, stride_lines=1, footprint_pages=fp(1024)), _PHASE // 2),
        ], 4.0
    if benchmark == "bzip2":
        return [
            (bind(Stream, 0, stride_lines=1, footprint_pages=fp(2048)), _PHASE),
            (bind(Gather, 1, footprint_pages=fp(2048)), _PHASE // 2),
        ], 3.0
    if benchmark == "gobmk":
        return [(bind(Gather, 0, footprint_pages=fp(1024)), _ONE_PHASE)], 5.0
    if benchmark == "hmmer":
        return [(bind(Stream, 0, stride_lines=1, footprint_pages=fp(96)), _ONE_PHASE)], 4.0
    if benchmark == "sjeng":
        return [(bind(Gather, 0, footprint_pages=fp(2048)), _ONE_PHASE)], 4.5
    if benchmark == "roms":
        return [(bind(Stream, 0, stride_lines=2, footprint_pages=fp(6144)), _ONE_PHASE)], 6.0
    if benchmark == "xz":
        return [
            (bind(PointerChase, 0, footprint_pages=fp(6144)), _PHASE),
            (bind(Stream, 1, stride_lines=1, footprint_pages=fp(2048)), _PHASE // 2),
        ], 3.0
    if benchmark == "mcf_s17":
        return [(bind(PointerChase, 0, footprint_pages=fp(16384)), _ONE_PHASE)], 2.0
    raise KeyError(f"unknown SPEC benchmark {benchmark!r}; known: {SPEC_BENCHMARKS}")


SPEC_BENCHMARKS = (
    "astar", "lbm", "libquantum", "milc", "leslie3d", "bwaves", "GemsFDTD",
    "cactuBSSN", "sphinx3", "fotonik3d_s", "soplex", "zeusmp", "wrf", "mcf",
    "omnetpp", "xalancbmk", "gcc", "perlbench", "bzip2", "gobmk", "hmmer",
    "sjeng", "roms", "xz", "mcf_s17",
)


def _stable_hash(text: str) -> int:
    """Deterministic across interpreter runs (unlike builtin hash)."""
    h = 0
    for ch in text:
        h = (h * 131 + ord(ch)) & 0xFFFFFFFF
    return h


#: control-heavy integer benchmarks get data-dependent branch mixes; the
#: loop-dominated FP/stream benchmarks get predictable back-edges
_SPEC_INT_BENCHMARKS = frozenset((
    "astar", "mcf", "mcf_s17", "omnetpp", "xalancbmk", "gcc", "perlbench",
    "bzip2", "gobmk", "hmmer", "sjeng", "xz",
))


def spec(benchmark: str, simpoint: int = 0) -> SyntheticWorkload:
    """A SPEC-like workload; `simpoint` > 0 gives an alternate trace slice."""
    rng = random.Random(_stable_hash(benchmark) + simpoint * 7919)
    phases, gap = _spec_phases(benchmark, rng)
    code = 48 if gap < 3.0 else 160
    if benchmark in _SPEC_INT_BENCHMARKS:
        branches = ("mixed", rng.choice((8, 16, 24)), rng.choice((0.55, 0.65)))
    else:
        branches = ("loop", rng.choice((32, 64, 128)))
    name = benchmark if simpoint == 0 else f"{benchmark}.{simpoint}"
    return SyntheticWorkload(
        name, "SPEC", simpoint * 7919 + _stable_hash(benchmark), phases,
        mean_gap=gap, code_lines=code, branch_profile=branches,
    )


# ---------------------------------------------------------------------------
# GAP / LIGRA graph workloads

GAP_ALGORITHMS = ("bc", "bfs", "cc", "pr", "sssp", "tc")
GRAPH_FLAVOURS = ("road", "web", "twitter", "urand", "kron")
LIGRA_ALGORITHMS = ("BFS", "BC", "Components", "PageRank", "Radii", "Triangle", "MIS", "KCore")
LIGRA_FLAVOURS = ("road", "web", "urand")

#: per-algorithm (mean_gap, store_fraction, nodes_pages) adjustments
_GRAPH_TUNING = {
    "bc": (2.5, 0.10, 6144), "bfs": (2.0, 0.08, 8192), "cc": (2.5, 0.15, 6144),
    "pr": (2.0, 0.20, 8192), "sssp": (2.5, 0.12, 6144), "tc": (3.0, 0.05, 4096),
    "BFS": (2.0, 0.08, 6144), "BC": (2.5, 0.10, 6144), "Components": (2.5, 0.15, 6144),
    "PageRank": (2.0, 0.20, 8192), "Radii": (2.5, 0.10, 4096),
    "Triangle": (3.0, 0.05, 4096), "MIS": (2.0, 0.10, 4096), "KCore": (2.5, 0.12, 6144),
}


def graph(algorithm: str, flavour: str, suite: str, seed: int = 0) -> SyntheticWorkload:
    """A GAP/LIGRA graph-analytics workload."""
    gap, stores, nodes = _GRAPH_TUNING[algorithm]
    name = f"{algorithm}.{flavour}"
    if seed:
        name = f"{name}.{seed}"
    rng = random.Random(_stable_hash(name) + seed)
    nodes = _jitter(rng, nodes, 0.2)
    return SyntheticWorkload(
        name,
        suite,
        seed * 104729 + _stable_hash(name),
        [(bind(GraphCsr, 0, flavour=flavour, nodes_pages=nodes), _ONE_PHASE)],
        mean_gap=gap,
        store_fraction=stores,
        code_lines=64,
    )


# ---------------------------------------------------------------------------
# PARSEC

PARSEC_BENCHMARKS = (
    "bodytrack", "canneal", "dedup", "facesim", "ferret",
    "fluidanimate", "freqmine", "raytrace", "streamcluster", "vips",
)


def parsec(benchmark: str, seed: int = 0) -> SyntheticWorkload:
    """A PARSEC-like workload (seed > 0 gives a held-out variant)."""
    rng = random.Random(_stable_hash(benchmark) + seed * 6271)
    fp = lambda base: _jitter(rng, base)  # noqa: E731

    profiles: dict[str, tuple[list, float]] = {
        "vips": ([(bind(Stream, 0, stride_lines=1, footprint_pages=fp(4096)), _ONE_PHASE)], 4.5),
        "streamcluster": ([
            (bind(Stream, 0, stride_lines=1, footprint_pages=fp(6144)), _PHASE),
            (bind(Gather, 1, footprint_pages=fp(2048)), _PHASE // 2),
        ], 4.0),
        "canneal": ([(bind(Gather, 0, footprint_pages=fp(12288)), _ONE_PHASE)], 2.5),
        "facesim": ([(bind(Strided, 0, stride_lines=40, footprint_pages=fp(6144)), _ONE_PHASE)], 4.0),
        "fluidanimate": ([(bind(PageTiled, 0, footprint_pages=fp(4096), burst_lines=32), _ONE_PHASE)], 3.0),
        "dedup": ([
            (bind(Stream, 0, stride_lines=1, footprint_pages=fp(3072)), _PHASE),
            (bind(PageTiled, 1, footprint_pages=fp(2048), burst_lines=24), _PHASE),
        ], 3.0),
        "ferret": ([
            (bind(Gather, 0, footprint_pages=fp(4096)), _PHASE),
            (bind(Stream, 1, stride_lines=2, footprint_pages=fp(2048)), _PHASE // 2),
        ], 3.0),
        "bodytrack": ([(bind(PageTiled, 0, footprint_pages=fp(2048), burst_lines=40), _ONE_PHASE)], 3.5),
        "freqmine": ([(bind(PointerChase, 0, footprint_pages=fp(6144)), _ONE_PHASE)], 3.0),
        "raytrace": ([(bind(Gather, 0, footprint_pages=fp(8192)), _ONE_PHASE)], 3.0),
    }
    phases, gap = profiles[benchmark]
    name = benchmark if seed == 0 else f"{benchmark}.{seed}"
    return SyntheticWorkload(name, "PARSEC", seed * 6271 + _stable_hash(benchmark), phases, mean_gap=gap)


# ---------------------------------------------------------------------------
# Geekbench (GKB5): phased mixes

#: Figure-2-named workloads keep their paper-reported page-cross sign:
#: gkb5_101 friendly (streaming sub-tests), gkb5_310 hostile (tiled sub-tests)
_GKB5_FORCED: dict[int, str] = {101: "friendly", 310: "hostile"}
_QMM_FORCED: dict[tuple[str, int], str] = {
    ("int", 13): "friendly", ("int", 365): "friendly",
    ("int", 859): "hostile", ("fp", 44): "hostile",
}


def gkb5(index: int, seed: int = 0) -> SyntheticWorkload:
    """A Geekbench-like phased workload; `index` seeds the sub-test mix."""
    rng = random.Random(index * 31 + seed * 17 + 5)
    forced = _GKB5_FORCED.get(index)
    if forced == "friendly":
        phases = [
            (bind(Stream, 0, stride_lines=1, footprint_pages=_jitter(rng, 5120)), 28_000),
            (bind(Strided, 1, stride_lines=rng.choice((36, 44)), footprint_pages=_jitter(rng, 4096)), 20_000),
        ]
        return SyntheticWorkload(
            f"gkb5_{index}" if seed == 0 else f"gkb5_{index}.{seed}",
            "GKB5", index * 131 + seed * 31 + 7, phases,
            mean_gap=5.5, code_lines=256, mispredict_rate=0.002,
        )
    if forced == "hostile":
        phases = [
            (bind(PageTiled, 0, footprint_pages=_jitter(rng, 4096), burst_lines=48), 28_000),
            (bind(Gather, 1, footprint_pages=_jitter(rng, 4096)), 16_000),
        ]
        return SyntheticWorkload(
            f"gkb5_{index}" if seed == 0 else f"gkb5_{index}.{seed}",
            "GKB5", index * 131 + seed * 31 + 7, phases,
            mean_gap=2.5, code_lines=512, mispredict_rate=0.004,
        )
    phases = []
    n_phases = rng.choice((2, 3, 3, 4))
    for i in range(n_phases):
        kind = rng.randrange(6)
        if kind == 5:
            factory = bind(Alternating, i, footprint_pages=_jitter(rng, 3072),
                           period=rng.choice((1_500, 2_500)))
        elif kind == 0:
            factory = bind(Stream, i, stride_lines=rng.choice((1, 1, 2, 4)), footprint_pages=_jitter(rng, 3072))
        elif kind == 1:
            factory = bind(PageTiled, i, footprint_pages=_jitter(rng, 3072), burst_lines=rng.choice((24, 40, 56)))
        elif kind == 2:
            factory = bind(Gather, i, footprint_pages=_jitter(rng, 4096))
        elif kind == 3:
            factory = bind(Strided, i, stride_lines=rng.choice((36, 40, 44, 48)), footprint_pages=_jitter(rng, 4096))
        else:
            factory = bind(PointerChase, i, footprint_pages=_jitter(rng, 6144))
        phases.append((factory, rng.choice((12_000, 20_000, 32_000))))
    return SyntheticWorkload(
        f"gkb5_{index}" if seed == 0 else f"gkb5_{index}.{seed}",
        "GKB5",
        index * 131 + seed * 31 + 7,
        phases,
        mean_gap=rng.choice((2.5, 3.5, 4.5)),
        code_lines=rng.choice((48, 256, 1024, 2048)),
        branch_profile=rng.choice((("loop", 32), ("mixed", 16, 0.65), ("biased", 0.92))),
    )


# ---------------------------------------------------------------------------
# Qualcomm CVP-1 style (QMM_INT / QMM_FP): short industrial traces

def qmm(kind: str, index: int) -> SyntheticWorkload:
    """A Qualcomm-like short trace; `kind` is 'int' or 'fp'."""
    if kind not in ("int", "fp"):
        raise ValueError(f"kind must be 'int' or 'fp', got {kind!r}")
    rng = random.Random(index * 977 + (11 if kind == "int" else 23))
    forced = _QMM_FORCED.get((kind, index))
    if forced == "friendly":
        phases = [(bind(Stream, 0, stride_lines=1, footprint_pages=_jitter(rng, 4096)), 16_000)]
        return SyntheticWorkload(
            f"qmm_{kind}_{index}", f"QMM_{kind.upper()}", index * 509 + 3, phases,
            mean_gap=5.5, code_lines=256, mispredict_rate=0.005,
        )
    if forced == "hostile":
        phases = [(bind(PageTiled, 0, footprint_pages=_jitter(rng, 4096), burst_lines=rng.choice((40, 56))), 16_000)]
        return SyntheticWorkload(
            f"qmm_{kind}_{index}", f"QMM_{kind.upper()}", index * 509 + 3, phases,
            mean_gap=2.0, code_lines=512, mispredict_rate=0.008,
        )
    phases = []
    n_phases = rng.choice((1, 2, 2))
    for i in range(n_phases):
        if kind == "int":
            choice = rng.randrange(5)
            if choice == 4:
                factory = bind(Alternating, i, footprint_pages=_jitter(rng, 3072),
                               period=rng.choice((1_000, 2_000)))
            elif choice == 0:
                factory = bind(Gather, i, footprint_pages=_jitter(rng, 4096))
            elif choice == 1:
                factory = bind(PointerChase, i, footprint_pages=_jitter(rng, 4096))
            elif choice == 2:
                factory = bind(PageTiled, i, footprint_pages=_jitter(rng, 3072), burst_lines=rng.choice((16, 32, 48)))
            else:
                factory = bind(Stream, i, stride_lines=1, footprint_pages=_jitter(rng, 3072))
        else:
            choice = rng.randrange(3)
            if choice == 0:
                factory = bind(Stream, i, stride_lines=rng.choice((1, 2, 4)), footprint_pages=_jitter(rng, 5120))
            elif choice == 1:
                factory = bind(Strided, i, stride_lines=rng.choice((36, 44, 48)), footprint_pages=_jitter(rng, 5120))
            else:
                factory = bind(PageTiled, i, footprint_pages=_jitter(rng, 4096), burst_lines=rng.choice((40, 56)))
        phases.append((factory, rng.choice((8_000, 16_000))))
    if kind == "int":
        gap = rng.choice((2.0, 3.0, 4.0))
        branches = ("mixed", rng.choice((6, 8, 12)), rng.choice((0.6, 0.7)))
    else:
        gap = rng.choice((3.5, 4.0, 4.5))
        branches = ("loop", rng.choice((64, 128)))
    return SyntheticWorkload(
        f"qmm_{kind}_{index}",
        f"QMM_{kind.upper()}",
        index * 509 + 3,
        phases,
        mean_gap=gap,
        code_lines=rng.choice((48, 512, 1536)),
        branch_profile=branches,
    )


# ---------------------------------------------------------------------------
# non-intensive workloads (LLC MPKI < 1): small footprints, sparse memory ops

def non_intensive(index: int) -> SyntheticWorkload:
    """A non-memory-intensive workload (LLC MPKI ~ 0; Section V-B9)."""
    rng = random.Random(index * 397 + 1)
    kind = rng.randrange(3)
    # footprints stay inside the L1D (768 lines) so all cache levels hit and
    # prefetching has nothing to win: LLC MPKI ~ 0 and IPC ~ unchanged
    if kind == 0:
        factory = bind(Stream, 0, stride_lines=1, footprint_pages=rng.choice((4, 6, 8)))
    elif kind == 1:
        # random gathers fill their footprint slowly (coupon collector), so
        # keep it tiny or cold misses bleed past warm-up
        factory = bind(Gather, 0, footprint_pages=2)
    else:
        factory = bind(PageTiled, 0, footprint_pages=rng.choice((2, 4)), burst_lines=32)
    return SyntheticWorkload(
        f"calm_{index}",
        "CALM",
        index * 61 + 13,
        [(factory, _ONE_PHASE)],
        mean_gap=rng.choice((10.0, 14.0, 18.0)),
        code_lines=rng.choice((32, 64)),
    )
