"""Content-addressed on-disk cache of simulation results.

A cache entry maps the SHA-256 fingerprint of one grid cell's *complete*
inputs — the full :class:`~repro.cpu.simulator.SimConfig` dump (every
hardware parameter included), the declarative :class:`RunSpec`, and the
workload identity (``workload_identity``) — to the finished
:class:`~repro.cpu.simulator.SimResult`.  Because every run in this repo is
deterministic given those inputs, a cache hit is bit-identical to re-running
the cell: JSON round-trips Python floats exactly.

The layout is git-like (``<root>/<key[:2]>/<key>.json``) and writes are
atomic (temp file + ``os.replace``), so a single cache directory can be
shared by many worker processes — and by repeated invocations, which is how
``sweep_parameter`` simulates its shared ``discard`` baseline once instead
of once per sweep point.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Any, Optional

from repro.cpu.simulator import SimResult
from repro.obs.metrics import get_metrics
from repro.obs.tracing import trace_span

#: result-cache instruments (process-wide; grid workers never touch the
#: result cache — lookups and writes both happen in the parent)
_HITS = get_metrics().counter("result_cache.hits", "cells served from disk")
_MISSES = get_metrics().counter("result_cache.misses", "cells that had to simulate")
_STORES = get_metrics().counter("result_cache.stores", "freshly written entries")

#: bump when the entry layout or the fingerprint payload changes incompatibly
#: (2: merged-latency-floor timing fix, pruned/deduped in-flight-miss feature,
#: measured TLB prefetch counters, SimResult.tlb_prefetch_evicted_unused;
#: 3: sweep and mix ISO cells get ISO's prefetcher storage)
CACHE_SCHEMA = 3


def canonical_json(payload: Any) -> str:
    """Deterministic JSON used for fingerprinting (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of `payload`."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed result store keyed by cell fingerprints.

    ``hits`` / ``misses`` count lookups, ``stores`` counts writes; the
    ``stats`` property snapshots all three (the sweep tests assert the
    shared-baseline guarantee through them).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """Return the cached result for `key`, or None (counted as a miss)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, OSError, json.JSONDecodeError):
            self.misses += 1
            _MISSES.inc()
            return None
        if payload.get("schema") != CACHE_SCHEMA or "result" not in payload:
            self.misses += 1
            _MISSES.inc()
            return None
        try:
            result = SimResult(**payload["result"])
        except TypeError:  # entry written by an incompatible SimResult layout
            self.misses += 1
            _MISSES.inc()
            return None
        self.hits += 1
        _HITS.inc()
        return result

    def put(self, key: str, result: SimResult, *, meta: Optional[dict[str, Any]] = None) -> None:
        """Store `result` under `key` (atomic; safe across processes)."""
        with trace_span("cache-write", category="cache", key=key[:12]):
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload: dict[str, Any] = {"schema": CACHE_SCHEMA, "key": key, "result": asdict(result)}
            if meta:
                payload["meta"] = meta
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            os.replace(tmp, path)
        self.stores += 1
        _STORES.inc()

    @property
    def stats(self) -> dict[str, int]:
        """Snapshot of hit/miss/store counters."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"
