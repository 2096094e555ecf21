"""On-disk reuse-profile store: roundtrips, counters, keys, knobs."""

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
    return TraceStore(root=tmp_path)


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
        assert store.counters() == {"profile_hits": 0, "profile_misses": 1}
        built = store.profile(FIELDS, MACH, _no_build)
        fresh = TraceStore(root=store.root)
        loaded = fresh.profile(FIELDS, MACH, _no_build)
        assert _same_profile(loaded, built)
        assert loaded.l1_hist.dtype == np.int64
        assert loaded.query(MACH) == stats
        assert fresh.counters() == {"profile_hits": 1, "profile_misses": 0}

    def test_cold_stats_leave_no_trace_file(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        files = [p for p in store.root.rglob("*") if p.is_file()]
        assert [p.suffix for p in files] == [".npz"]

    def test_stats_roundtrip(self, store, builds):
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        s2 = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        assert s1 == s2
        # The second call prices from the warm profile: no trace build.
        assert store.profile_hits == 1 and store.profile_misses == 1
        assert builds == [FIELDS]
        # A fresh handle on the same root prices from the stored profile.
        fresh = TraceStore(root=store.root)
        assert cached_multiply_stats(
            "standard", "LZ", 32, 8, MACH, store=fresh
        ) == s1
        assert fresh.counters() == {"profile_hits": 1, "profile_misses": 0}

    def test_profile_memo_evicts_least_recently_used(self, store, monkeypatch):
        """A memo hit counts as a use: a full memo evicts the profile
        touched longest ago, not the one inserted first."""
        monkeypatch.setattr(store_mod, "_MEMO_PROFILES", 4)

        def fields(i):
            return {"src": "memo-probe", "i": i}

        def build():
            return np.arange(64, dtype=np.int64) * MACH.l1.line

        for i in range(4):
            store.profile(fields(i), MACH, build)
        store.profile(fields(0), MACH, _no_build)  # re-touch the oldest
        store.profile(fields(4), MACH, build)  # evicts one profile
        for npz in store.root.rglob("*.npz"):
            npz.unlink()  # only the in-memory memo can answer now
        store.profile(fields(0), MACH, _no_build)
        misses = store.profile_misses
        store.profile(fields(1), MACH, build)
        assert store.profile_misses == misses + 1

    def test_stats_match_direct_simulation(self, store):
        table, sizes = synthesize_multiply("standard", "LZ", 32, 8)
        addrs = expand_table(table, MACH, sizes)
        cached = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        assert cached == simulate_hierarchy(addrs, MACH)

    def test_synthetic_roundtrip(self, store):
        s1 = cached_synthetic_stats("dense_standard", MACH, n=24, tile=8, store=store)
        s2 = cached_synthetic_stats("dense_standard", MACH, n=24, tile=8, store=store)
        assert s1 == s2 and store.profile_hits == 1
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
        # build, one profile file, two prices.
        import dataclasses

        m1 = MACH
        m2 = dataclasses.replace(MACH, mem=500.0)
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, m1, store=store)
        s2 = cached_multiply_stats("standard", "LZ", 32, 8, m2, store=store)
        assert builds == [FIELDS]
        # The second machine answers from the warm reuse-distance
        # profile without rebuilding the trace.
        assert len(list(store.root.rglob("*.npz"))) == 1
        assert store.profile_misses == 1 and store.profile_hits == 1
        assert s1.l1_misses == s2.l1_misses and s1.cycles != s2.cycles

    def test_machine_geometry_splits_stats(self, store):
        # Another config family (line size, set count) needs its own
        # profile: a second build and a second .npz.
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, ultrasparc_like(), store=store)
        s2 = cached_multiply_stats("standard", "LZ", 32, 8, modern_like(), store=store)
        assert store.profile_misses == 2 and store.profile_hits == 0
        assert len(list(store.root.rglob("*.npz"))) == 2
        assert s1 != s2

    def test_include_tlb_splits_stats(self, store, builds):
        s1 = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        s2 = cached_multiply_stats(
            "standard", "LZ", 32, 8, MACH, include_tlb=False, store=store
        )
        # One profile prices both: the flag only drops the TLB term.
        assert builds == [FIELDS]
        assert store.profile_misses == 1 and store.profile_hits == 1
        assert len(list(store.root.rglob("*.npz"))) == 1
        assert s2.tlb_misses == 0 and s1.tlb_misses > 0
        assert (s2.accesses, s2.l1_misses, s2.l2_misses) == (
            s1.accesses, s1.l1_misses, s1.l2_misses
        )

    def test_key_is_canonical(self):
        k1 = TraceStore.key_of({"a": 1, "b": 2})
        k2 = TraceStore.key_of({"b": 2, "a": 1})
        assert k1 == k2 and len(k1) == 64


class TestRobustness:
    def test_corrupt_profile_file_is_rebuilt(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        (npz,) = list(store.root.rglob("*.npz"))
        npz.write_bytes(b"not a numpy file")
        fresh = TraceStore(root=store.root)
        again = fresh.profile(FIELDS, MACH, BUILD)
        assert fresh.profile_misses == 1
        with open(npz, "rb") as fh:
            assert _same_profile(again, ReuseProfile.load(fh))

    @pytest.mark.parametrize(
        "damage",
        [lambda blob: b"", lambda blob: blob[: len(blob) // 2]],
        ids=["empty-npz", "half-npz"],
    )
    def test_damaged_artifact_is_rebuilt(self, tmp_path, damage):
        first = TraceStore(root=tmp_path)
        stats = cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=first)
        profile = first.profile(FIELDS, MACH, _no_build)
        (path,) = list(tmp_path.rglob("*.npz"))
        path.write_bytes(damage(path.read_bytes()))
        store = TraceStore(root=tmp_path)
        assert cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store) == stats
        assert _same_profile(store.profile(FIELDS, MACH, _no_build), profile)
        # The damaged profile was rebuilt once, then answered warm.
        assert store.counters() == {"profile_hits": 1, "profile_misses": 1}
        assert path.stat().st_size > 0

    def test_reset_counters(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, MACH, store=store)
        store.reset_counters()
        assert not any(store.counters().values())


class TestKnobs:
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
