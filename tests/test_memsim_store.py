"""On-disk trace/stats store: roundtrips, counters, keys, knobs."""

import json

import numpy as np
import pytest

from repro.memsim import store as store_mod
from repro.memsim.hierarchy import simulate_hierarchy
from repro.memsim.machine import modern_like, scaled, ultrasparc_like
from repro.memsim.store import (
    TraceStore,
    cached_multiply_stats,
    cached_multiply_trace,
    cached_synthetic_stats,
    cached_synthetic_trace,
    default_store,
)


@pytest.fixture
def store(tmp_path):
    return TraceStore(root=tmp_path, enabled=True)


MACH = scaled(4)


class TestRoundtrip:
    def test_trace_roundtrip_and_counters(self, store):
        a1 = cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=store)
        a2 = cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=store)
        assert np.array_equal(a1, a2)
        assert a1.dtype == np.int64
        assert store.counters() == {
            "trace_hits": 1,
            "trace_misses": 1,
            "stats_hits": 0,
            "stats_misses": 0,
            "profile_hits": 0,
            "profile_misses": 0,
        }

    def test_stats_roundtrip(self, store):
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        s2 = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        assert s1 == s2
        assert store.stats_hits == 1 and store.stats_misses == 1
        # The stats hit short-circuits: no trace lookup on the second call.
        assert store.trace_hits == 0 and store.trace_misses == 1

    def test_stats_match_direct_simulation(self, store):
        addrs = cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=store)
        cached = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        assert cached == simulate_hierarchy(addrs, MACH)

    def test_synthetic_roundtrip(self, store):
        a1 = cached_synthetic_trace("dense_standard", MACH, n=24, tile=8, store=store)
        a2 = cached_synthetic_trace("dense_standard", MACH, n=24, tile=8, store=store)
        assert np.array_equal(a1, a2)
        s = cached_synthetic_stats("dense_standard", MACH, n=24, tile=8, store=store)
        assert s == simulate_hierarchy(a1, MACH)

    def test_unknown_synthetic_source(self, store):
        with pytest.raises(KeyError):
            cached_synthetic_trace("nope", MACH, n=8, tile=4, store=store)


class TestKeys:
    def test_distinct_parameters_distinct_entries(self, store):
        cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=store)
        cached_multiply_trace("standard", "LZ", 32, 4, MACH, store=store)
        cached_multiply_trace("standard", "LU", 32, 8, MACH, store=store)
        cached_multiply_trace("strassen", "LZ", 32, 8, MACH, store=store)
        assert store.trace_misses == 4 and store.trace_hits == 0

    def test_machine_pricing_does_not_split_traces(self, store):
        # Same expansion geometry, different cycle costs: one trace file,
        # two stats entries.
        import dataclasses

        m1 = MACH
        m2 = dataclasses.replace(MACH, mem=500.0)
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, m1, store=store)
        s2 = cached_multiply_stats("standard", "LZ", 32, 8, m2, store=store)
        assert store.trace_misses == 1
        assert store.stats_misses == 2
        # The second machine answers from the warm reuse-distance
        # profile without even touching the trace artifact.
        assert store.trace_hits == 0
        assert store.profile_misses == 1 and store.profile_hits == 1
        assert s1.l1_misses == s2.l1_misses and s1.cycles != s2.cycles

    def test_machine_geometry_splits_stats(self, store):
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, ultrasparc_like(), store=store)
        s2 = cached_multiply_stats("standard", "LZ", 32, 8, modern_like(), store=store)
        assert store.stats_misses == 2
        assert s1 != s2

    def test_include_tlb_splits_stats(self, store):
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        s2 = cached_multiply_stats(
            "standard", "LZ", 32, 8, MACH, include_tlb=False, store=store
        )
        assert store.stats_misses == 2
        assert s2.tlb_misses == 0 and s1.tlb_misses > 0

    def test_key_is_canonical(self):
        k1 = TraceStore.key_of({"a": 1, "b": 2})
        k2 = TraceStore.key_of({"b": 2, "a": 1})
        assert k1 == k2 and len(k1) == 64


class TestRobustness:
    def test_corrupt_trace_file_is_rebuilt(self, store):
        cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=store)
        (npy,) = list(store.root.rglob("*.npy"))
        npy.write_bytes(b"not a numpy file")
        again = cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=store)
        assert store.trace_misses == 2
        assert np.array_equal(again, np.load(npy))

    def test_corrupt_stats_file_is_rebuilt(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        (js,) = list(store.root.rglob("*.json"))
        js.write_text(json.dumps({"bogus": 1}))
        s = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        assert store.stats_misses == 2
        assert s.accesses > 0

    @pytest.mark.parametrize(
        "suffix, damage",
        [
            (".npy", lambda blob: b""),
            (".npz", lambda blob: b""),
            (".npz", lambda blob: blob[: len(blob) // 2]),
        ],
        ids=["empty-npy", "empty-npz", "half-npz"],
    )
    def test_damaged_artifact_is_rebuilt(self, tmp_path, suffix, damage):
        first = TraceStore(root=tmp_path, enabled=True)
        trace = cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=first)
        stats = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=first)
        for js in tmp_path.rglob("*.json"):
            js.unlink()  # force the next stats call through the profile
        (path,) = list(tmp_path.rglob("*" + suffix))
        path.write_bytes(damage(path.read_bytes()))
        store = TraceStore(root=tmp_path, enabled=True)
        again = cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=store)
        assert np.array_equal(again, trace)
        assert cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store) == stats
        assert store.trace_misses + store.profile_misses == 1
        assert path.stat().st_size > 0

    def test_reset_counters(self, store):
        cached_multiply_trace("standard", "LZ", 32, 8, MACH, store=store)
        store.reset_counters()
        assert not any(store.counters().values())


class TestKnobs:
    def test_disabled_store_touches_no_disk(self, tmp_path):
        off = TraceStore(root=tmp_path / "off", enabled=False)
        s = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=off)
        assert s.accesses > 0
        assert not (tmp_path / "off").exists()
        assert not any(off.counters().values())

    def test_env_knob_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert TraceStore(root=tmp_path).enabled is False
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        assert TraceStore(root=tmp_path).enabled is True

    def test_env_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "alt"))
        assert TraceStore().root == tmp_path / "alt"

    def test_default_store_singleton(self):
        assert default_store() is default_store()

    def test_default_root_under_benchmarks(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        s = TraceStore()
        assert s.root.name == "tracecache"
        assert s.root.parent.name == ".benchmarks"
        assert (store_mod._repo_root() / "ROADMAP.md").exists()
