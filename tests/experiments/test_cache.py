"""ResultCache: fingerprinting, round-trips, invalidation, corruption."""

import json
from dataclasses import replace

from repro.experiments.cache import CACHE_SCHEMA, ResultCache, canonical_json, fingerprint
from repro.experiments.parallel import cell_for, cell_fingerprint, run_cells
from repro.experiments.runner import RunSpec, run_many, run_policies
from repro.experiments.sampling import SamplingConfig
from repro.experiments.sweep import dram_latency_transform, stlb_size_transform
from repro.params import DEFAULT_PARAMS
from repro.workloads import by_name

FAST = RunSpec(warmup_instructions=1_000, sim_instructions=3_000)
WIDE = RunSpec(warmup_instructions=2_000, sim_instructions=6_000)

#: cell_fingerprint digests of registry cells: two windows per workload
#: (qmm_int_13 runs QMM's half windows), an ISO cell, a sampled cell, a
#: params override and a native-boundary filter.  Existing cache entries
#: stay addressable only while these hold.
GOLDEN = {
    "astar/1k+3k": ("astar", FAST,
                    "8c6bacadfcf61aaae4afa3356821cb5446a934bcf5fc5893b713d3071517eb25"),
    "astar/2k+6k": ("astar", WIDE,
                    "4c80405beb24e81fe6a77f6ec458b9b1a6be71cf27ec7ab2c3e70b187255909d"),
    "mcf/1k+3k": ("mcf", FAST,
                  "eb92635c7a331a83a0a78d08536cb7e9efb9476681ae692a767bfeadf187ede4"),
    "mcf/2k+6k": ("mcf", WIDE,
                  "d437bafdd3cf4780961a534cad523f276a4c04df081d993fe09f1a44568cc060"),
    "qmm_int_13/1k+3k": ("qmm_int_13", FAST,
                         "0682f444a98b6c600943f0cbdf81a51ec21dfc111f6a54124791edd3ce62d102"),
    "qmm_int_13/2k+6k": ("qmm_int_13", WIDE,
                         "ab7572942734812b48557e1a9743384ecf1ff69db18e55138571989db1eecd55"),
    "astar/iso": ("astar", replace(FAST, policy="iso"),
                  "1309066903267e201b819027ed15fa818b746bc1b34cda09f9e8d38151b5bcff"),
    "mcf/sampled": ("mcf", replace(WIDE, policy="dripper",
                                   sampling=SamplingConfig(intervals=16, phases=4)),
                    "132e5847f3f160fc1be140de7ea707cf47ec6bda52fbf7abcd89a709cc5f4ce6"),
    "astar/stlb-768": ("astar", replace(FAST, params=stlb_size_transform(DEFAULT_PARAMS, 768)),
                       "dba128053d424cbc0c25ae502fb0a5e73917aa00561bd764f6e1a9ffb03749b5"),
    "qmm_int_13/native": ("qmm_int_13", replace(FAST, policy="dripper",
                                                filter_at_native_boundary=True),
                          "5bfee697f41aebd0d9eb6d7636e937daca1043e0ee61be22320ad67cb686ee3c"),
}


class Seedless:
    """A workload with neither seed nor path, replaying another's records."""

    suite = "TEST"

    def __init__(self, name, source):
        self.name = name
        self.source = source

    def generate(self):
        return self.source.generate()


class TestFingerprint:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_stable_across_calls(self):
        cell = cell_for(by_name("astar"), FAST)
        assert cell_fingerprint(cell) == cell_fingerprint(cell)

    def test_pinned_value(self):
        # existing cache entries stay addressable only while this holds:
        # a change here must be deliberate and bump CACHE_SCHEMA
        assert cell_fingerprint(cell_for(by_name("astar"), FAST)) == (
            "8c6bacadfcf61aaae4afa3356821cb5446a934bcf5fc5893b713d3071517eb25")

    def test_golden_digests(self):
        # a change here must be deliberate and bump CACHE_SCHEMA
        assert CACHE_SCHEMA == 3
        got = {label: cell_fingerprint(cell_for(by_name(name), spec))
               for label, (name, spec, _digest) in GOLDEN.items()}
        assert got == {label: digest for label, (_, _, digest) in GOLDEN.items()}

    def test_workload_without_identity_has_no_key(self):
        assert cell_fingerprint(cell_for(Seedless("w", by_name("astar")), FAST)) is None

    def test_workload_changes_key(self):
        assert cell_fingerprint(cell_for(by_name("astar"), FAST)) != \
            cell_fingerprint(cell_for(by_name("hmmer"), FAST))

    def test_any_spec_field_changes_key(self):
        base = cell_fingerprint(cell_for(by_name("astar"), FAST))
        for change in (
            dict(policy="permit"),
            dict(prefetcher="bop"),
            dict(sim_instructions=4_000),
            dict(warmup_instructions=2_000),
            dict(large_page_fraction=0.5),
            dict(l2_prefetcher="spp"),
            dict(filter_at_native_boundary=True),
        ):
            assert cell_fingerprint(cell_for(by_name("astar"), replace(FAST, **change))) != base

    def test_params_override_changes_key(self):
        w = by_name("astar")
        base = cell_fingerprint(cell_for(w, FAST))
        resized = cell_for(w, replace(FAST, params=stlb_size_transform(DEFAULT_PARAMS, 768)))
        relat = cell_for(w, replace(FAST, params=dram_latency_transform(DEFAULT_PARAMS, 300)))
        assert len({base, cell_fingerprint(resized), cell_fingerprint(relat)}) == 3

    def test_default_params_and_explicit_default_collide(self):
        # same effective config -> same key: this is what shares baselines
        w = by_name("astar")
        implicit = cell_for(w, FAST)
        explicit = cell_for(w, replace(FAST, params=DEFAULT_PARAMS))
        assert cell_fingerprint(implicit) == cell_fingerprint(explicit)

    def test_epoch_override_changes_key(self):
        w = by_name("hmmer")
        assert cell_fingerprint(cell_for(w, replace(FAST, epoch_instructions=512))) != \
            cell_fingerprint(cell_for(w, FAST))

    def test_equal_specs_coalesce_and_variants_do_not(self, tmp_path):
        # params and epoch length are spec fields: a variant simulates on its
        # own, while a spec equal in effect to another is served off it
        cache = ResultCache(tmp_path)
        specs = (FAST, replace(FAST, params=DEFAULT_PARAMS),
                 replace(FAST, params=stlb_size_transform(DEFAULT_PARAMS, 768)),
                 replace(FAST, epoch_instructions=512))
        results = run_cells([cell_for(by_name("hmmer"), spec) for spec in specs],
                            cache=cache)
        assert cache.stats == {"hits": 1, "misses": 3, "stores": 3}
        assert results[1] == results[0]


class TestResultCache:
    def test_miss_then_roundtrip_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        result = run_many([by_name("astar")], FAST)[0]
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded == result  # dataclass equality: every field, floats exact
        assert cache.stats == {"hits": 1, "misses": 1, "stores": 1}

    def test_warm_pool_rerun_is_all_hits_and_matches_serial(self, tmp_path):
        workloads = [by_name("astar"), by_name("hmmer")]
        policies = ["discard", "permit"]
        serial = run_policies(workloads, policies, base_spec=FAST)
        run_policies(workloads, policies, base_spec=FAST, jobs=2, cache=ResultCache(tmp_path))
        warm = ResultCache(tmp_path)
        cached = run_policies(workloads, policies, base_spec=FAST, jobs=2, cache=warm)
        assert cached == serial
        assert warm.stats == {"hits": 4, "misses": 0, "stores": 0}

    def test_same_named_seedless_workloads_are_never_cached(self, tmp_path):
        # two workloads named "w" with no seed or path: nothing names their
        # traces, so neither may be served the other's result
        cache = ResultCache(tmp_path)
        workloads = [Seedless("w", by_name("astar")), Seedless("w", by_name("mcf"))]
        results = run_cells([cell_for(w, FAST) for w in workloads], cache=cache)
        assert cache.stats == {"hits": 0, "misses": 0, "stores": 0}
        assert results == [run_cells([cell_for(w, FAST)])[0] for w in workloads]
        assert results[0].ipc != results[1].ipc

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_many([by_name("astar")], FAST)[0]
        key = "cd" + "0" * 62
        cache.put(key, result)
        cache._path(key).write_text("not json{")
        assert cache.get(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_many([by_name("astar")], FAST)[0]
        key = "ef" + "0" * 62
        cache.put(key, result)
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_unknown_result_field_is_a_miss(self, tmp_path):
        # entries written by a future SimResult layout must not crash
        cache = ResultCache(tmp_path)
        result = run_many([by_name("astar")], FAST)[0]
        key = "01" + "0" * 62
        cache.put(key, result)
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["result"]["field_from_the_future"] = 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
