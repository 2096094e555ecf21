"""On-disk profile/stats store: roundtrips, counters, keys, knobs."""

import json

import numpy as np
import pytest

from repro.memsim import store as store_mod
from repro.memsim.hierarchy import simulate_hierarchy
from repro.memsim.machine import modern_like, scaled, ultrasparc_like
from repro.memsim.multiconfig import ReuseProfile
from repro.memsim.store import (
    TraceStore,
    cached_multiply_stats,
    cached_synthetic_stats,
    default_store,
)
from repro.memsim.synthesis import EventTable, expand_table, synthesize_multiply
from repro.memsim.synthetic import dense_standard_events


@pytest.fixture
def store(tmp_path):
    return TraceStore(root=tmp_path, enabled=True)


@pytest.fixture
def builds(store, monkeypatch):
    """Fields of every trace ``store`` builds (one per profile miss)."""
    calls = []
    real = store.trace

    def counted(fields, build):
        calls.append(fields)
        return real(fields, build)

    monkeypatch.setattr(store, "trace", counted)
    return calls


MACH = scaled(4)
FIELDS = store_mod._multiply_fields("standard", "LZ", 32, 8, "accumulate", None)
BUILD = store_mod._multiply_builder("standard", "LZ", 32, 8, MACH, "accumulate", None)


def _no_build():
    raise AssertionError("the store rebuilt a trace it should have read")


def _same_profile(a: ReuseProfile, b: ReuseProfile) -> bool:
    return (
        a.family == b.family
        and a.accesses == b.accesses
        and np.array_equal(a.l1_hist, b.l1_hist)
        and np.array_equal(a.tlb_hist, b.tlb_hist)
        and a.l2.keys() == b.l2.keys()
        and all(np.array_equal(a.l2[k], b.l2[k]) for k in a.l2)
    )


class TestRoundtrip:
    def test_profile_roundtrip_and_counters(self, store):
        stats = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        assert store.counters() == {
            "stats_hits": 0,
            "stats_misses": 1,
            "profile_hits": 0,
            "profile_misses": 1,
        }
        built = store.profile(FIELDS, MACH, _no_build)
        fresh = TraceStore(root=store.root, enabled=True)
        loaded = fresh.profile(FIELDS, MACH, _no_build)
        assert _same_profile(loaded, built)
        assert loaded.l1_hist.dtype == np.int64
        assert loaded.query(MACH) == stats
        assert fresh.counters() == {
            "stats_hits": 0,
            "stats_misses": 0,
            "profile_hits": 1,
            "profile_misses": 0,
        }

    def test_cold_stats_leave_no_trace_file(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        files = [p for p in store.root.rglob("*") if p.is_file()]
        assert sorted(p.suffix for p in files) == [".json", ".npz"]
        assert not list(store.root.rglob("*.npy"))

    def test_stats_roundtrip(self, store, builds):
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        s2 = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        assert s1 == s2
        assert store.stats_hits == 1 and store.stats_misses == 1
        # The stats hit short-circuits: no profile lookup, no trace
        # build on the second call.
        assert store.profile_hits == 0 and store.profile_misses == 1
        assert builds == [FIELDS]

    def test_stats_match_direct_simulation(self, store):
        table, sizes = synthesize_multiply("standard", "LZ", 32, 8)
        addrs = expand_table(table, MACH, sizes)
        cached = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        assert cached == simulate_hierarchy(addrs, MACH)

    def test_synthetic_roundtrip(self, store):
        s1 = cached_synthetic_stats("dense_standard", MACH, n=24, tile=8, store=store)
        s2 = cached_synthetic_stats("dense_standard", MACH, n=24, tile=8, store=store)
        assert s1 == s2 and store.stats_hits == 1
        events = dense_standard_events(n=24, tile=8)
        addrs = expand_table(EventTable.from_events(events), MACH)
        assert s1 == simulate_hierarchy(addrs, MACH)

    def test_unknown_synthetic_source(self, store):
        with pytest.raises(KeyError):
            cached_synthetic_stats("nope", MACH, n=8, tile=4, store=store)


class TestKeys:
    def test_distinct_parameters_distinct_entries(self, store, builds):
        cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        cached_multiply_stats("standard", "LZ", 32, 4, MACH, store=store)
        cached_multiply_stats("standard", "LU", 32, 8, MACH, store=store)
        cached_multiply_stats("strassen", "LZ", 32, 8, MACH, store=store)
        assert store.profile_misses == 4 and store.profile_hits == 0
        assert len(builds) == 4
        assert len(list(store.root.rglob("*.npz"))) == 4

    def test_machine_pricing_does_not_split_traces(self, store, builds):
        # Same expansion geometry, different cycle costs: one trace
        # build, one profile file, two stats entries.
        import dataclasses

        m1 = MACH
        m2 = dataclasses.replace(MACH, mem=500.0)
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, m1, store=store)
        s2 = cached_multiply_stats("standard", "LZ", 32, 8, m2, store=store)
        assert builds == [FIELDS]
        assert store.stats_misses == 2
        # The second machine answers from the warm reuse-distance
        # profile without rebuilding the trace.
        assert len(list(store.root.rglob("*.npz"))) == 1
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
    def test_corrupt_profile_file_is_rebuilt(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        (npz,) = list(store.root.rglob("*.npz"))
        npz.write_bytes(b"not a numpy file")
        fresh = TraceStore(root=store.root, enabled=True)
        again = fresh.profile(FIELDS, MACH, BUILD)
        assert fresh.profile_misses == 1
        with open(npz, "rb") as fh:
            assert _same_profile(again, ReuseProfile.load(fh))

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
            (".json", lambda blob: b""),
            (".npz", lambda blob: b""),
            (".npz", lambda blob: blob[: len(blob) // 2]),
        ],
        ids=["empty-json", "empty-npz", "half-npz"],
    )
    def test_damaged_artifact_is_rebuilt(self, tmp_path, suffix, damage):
        first = TraceStore(root=tmp_path, enabled=True)
        stats = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=first)
        profile = first.profile(FIELDS, MACH, _no_build)
        if suffix == ".npz":
            for js in tmp_path.rglob("*.json"):
                js.unlink()  # force the next stats call through the profile
        (path,) = list(tmp_path.rglob("*" + suffix))
        path.write_bytes(damage(path.read_bytes()))
        store = TraceStore(root=tmp_path, enabled=True)
        assert cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store) == stats
        assert _same_profile(store.profile(FIELDS, MACH, _no_build), profile)
        # Exactly the damaged artifact was rebuilt (the deleted stats
        # of the .npz cases miss too).
        if suffix == ".json":
            assert (store.stats_misses, store.profile_misses) == (1, 0)
        else:
            assert (store.stats_misses, store.profile_misses) == (1, 1)
        assert path.stat().st_size > 0

    def test_reset_counters(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
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
