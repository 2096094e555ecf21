"""On-disk reuse-profile store: roundtrips, counters, keys, caps, knobs."""

import dataclasses
import itertools
import pickle

import numpy as np
import pytest

from repro.memsim import machine as machine_mod
from repro.memsim import multiconfig
from repro.memsim import store as store_mod
from repro.memsim.hierarchy import simulate_hierarchy
from repro.memsim.machine import assoc_scaled, modern_like, scaled, ultrasparc_like
from repro.memsim.multiconfig import ReuseProfile
from repro.obs.manifest import machine_fingerprint
from repro.serve.protocol import machine_to_dict, parse_request
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
#: fig6ms's default machine grid: 4 L1 x 2 L2 associativities x 2 TLBs.
FIG6MS_GRID = [
    assoc_scaled(*axes) for axes in itertools.product((1, 2, 4, 8), (1, 4), (8, 32))
]


def _no_build():
    raise AssertionError("the store rebuilt a trace it should have read")


def _counts(hits: int, misses: int, rebuilds: int = 0) -> dict[str, int]:
    """A store's exact ``counters()``."""
    return {
        "profile_hits": hits,
        "profile_misses": misses,
        "profile_rebuilds": rebuilds,
    }


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
        (stats,) = cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
        assert store.counters() == _counts(0, 1)
        built = store.profile(FIELDS, [MACH], _no_build)
        fresh = TraceStore(root=store.root)
        loaded = fresh.profile(FIELDS, [MACH], _no_build)
        assert _same_profile(loaded, built)
        assert loaded.l1_hist.dtype == np.int64
        assert loaded.query(MACH) == stats
        assert fresh.counters() == _counts(1, 0)

    def test_cold_stats_leave_no_trace_file(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
        files = [p for p in store.root.rglob("*") if p.is_file()]
        assert [p.suffix for p in files] == [".npz"]

    def test_stats_roundtrip(self, store, builds):
        (s1,) = cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
        (s2,) = cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
        assert s1 == s2
        # The second call prices from the warm profile: no trace build.
        assert store.profile_hits == 1 and store.profile_misses == 1
        assert builds == [FIELDS]
        # A fresh handle on the same root prices from the stored profile.
        fresh = TraceStore(root=store.root)
        assert cached_multiply_stats(
            "standard", "LZ", 32, 8, [MACH], store=fresh
        ) == [s1]
        assert fresh.counters() == _counts(1, 0)

    def test_profile_memo_evicts_least_recently_used(self, store, monkeypatch):
        """A memo hit counts as a use: a full memo evicts the profile
        touched longest ago, not the one inserted first."""
        monkeypatch.setattr(store_mod, "_MEMO_PROFILES", 4)

        def fields(i):
            return {"src": "memo-probe", "i": i}

        def build():
            return np.arange(64, dtype=np.int64) * MACH.l1.line

        for i in range(4):
            store.profile(fields(i), [MACH], build)
        store.profile(fields(0), [MACH], _no_build)  # re-touch the oldest
        store.profile(fields(4), [MACH], build)  # evicts one profile
        for npz in store.root.rglob("*.npz"):
            npz.unlink()  # only the in-memory memo can answer now
        store.profile(fields(0), [MACH], _no_build)
        misses = store.profile_misses
        store.profile(fields(1), [MACH], build)
        assert store.profile_misses == misses + 1

    def test_stats_match_direct_simulation(self, store):
        table, sizes = synthesize_multiply("standard", "LZ", 32, 8)
        addrs = expand_table(table, MACH, sizes)
        (cached,) = cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
        assert cached == simulate_hierarchy(addrs, MACH)

    def test_synthetic_roundtrip(self, store):
        (s1,) = cached_synthetic_stats("dense_standard", [MACH], n=24, tile=8, store=store)
        (s2,) = cached_synthetic_stats("dense_standard", [MACH], n=24, tile=8, store=store)
        assert s1 == s2 and store.profile_hits == 1
        events = dense_standard_events(n=24, tile=8)
        addrs = expand_table(EventTable.from_events(events), MACH)
        assert s1 == simulate_hierarchy(addrs, MACH)

    def test_unknown_synthetic_source(self, store):
        with pytest.raises(KeyError):
            cached_synthetic_stats("nope", [MACH], n=8, tile=4, store=store)


def _assoc_fields_build(machine):
    fields = store_mod._multiply_fields("standard", "LZ", 32, 8, "accumulate", None)
    build = store_mod._multiply_builder(
        "standard", "LZ", 32, 8, machine, "accumulate", None
    )
    return fields, build


class TestCaps:
    """A profile is built at the caps asked for and widened, never
    narrowed, when a later request needs more."""

    def test_wider_stored_profile_is_a_hit(self, store, builds):
        grid = [assoc_scaled(a, 4, 32) for a in (1, 2, 4, 8)]
        fields, build = _assoc_fields_build(grid[0])
        store.profile(fields, grid, build)
        fresh = TraceStore(root=store.root)
        narrow = [assoc_scaled(2, 1, 8)]
        prof = fresh.profile(fields, narrow, _no_build)
        assert fresh.counters() == _counts(1, 0)
        assert sorted(prof.l2) == [1, 2, 4, 8]
        assert len(builds) == 1

    def test_narrow_then_wide_rebuilds_once(self, store, builds):
        one_way = assoc_scaled(1, 1, 16)
        wide = assoc_scaled(8, 1, 128)
        fields, build = _assoc_fields_build(one_way)
        store.profile(fields, [one_way], build)
        prof = store.profile(fields, [wide], build)
        # The second call found the memoized 1-way profile too narrow:
        # a miss that is also counted as one widening rebuild.
        assert store.counters() == _counts(0, 2, rebuilds=1)
        assert len(builds) == 2
        # The rebuild kept the 1-way machine's histogram: both machines,
        # and any family member within the widened caps, price warm.
        assert sorted(prof.l2) == [1, 8]
        fresh = TraceStore(root=store.root)
        assert fresh.profile(fields, [one_way, wide], _no_build) is not None
        assert fresh.counters() == _counts(1, 0)
        table, sizes = synthesize_multiply("standard", "LZ", 32, 8)
        addrs = expand_table(table, one_way, sizes)
        assert fresh.stats(fields, [one_way, wide], True, _no_build) == [
            simulate_hierarchy(addrs, one_way),
            simulate_hierarchy(addrs, wide),
        ]
        assert fresh.counters()["profile_misses"] == 0

    def test_zero_entry_tlb_prices_no_tlb_misses(self, store):
        no_tlb = dataclasses.replace(MACH, tlb_entries=0)
        (st,) = cached_multiply_stats("standard", "LZ", 32, 8, [no_tlb], store=store)
        (with_tlb,) = cached_multiply_stats(
            "standard", "LZ", 32, 8, [MACH], store=store
        )
        assert st.tlb_misses == 0 and with_tlb.tlb_misses > 0
        assert (st.accesses, st.l1_misses, st.l2_misses) == (
            with_tlb.accesses, with_tlb.l1_misses, with_tlb.l2_misses
        )


class TestKeys:
    def test_distinct_parameters_distinct_entries(self, store, builds):
        cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
        cached_multiply_stats("standard", "LZ", 32, 4, [MACH], store=store)
        cached_multiply_stats("standard", "LU", 32, 8, [MACH], store=store)
        cached_multiply_stats("strassen", "LZ", 32, 8, [MACH], store=store)
        assert store.profile_misses == 4 and store.profile_hits == 0
        assert len(builds) == 4
        assert len(list(store.root.rglob("*.npz"))) == 4

    def test_machine_pricing_does_not_split_traces(self, store, builds):
        # Same expansion geometry, different cycle costs: one trace
        # build, one profile file, two prices.
        m1 = MACH
        m2 = dataclasses.replace(MACH, mem=500.0)
        (s1,) = cached_multiply_stats("standard", "LZ", 32, 8, [m1], store=store)
        (s2,) = cached_multiply_stats("standard", "LZ", 32, 8, [m2], store=store)
        assert builds == [FIELDS]
        # The second machine answers from the warm reuse-distance
        # profile without rebuilding the trace.
        assert len(list(store.root.rglob("*.npz"))) == 1
        assert store.profile_misses == 1 and store.profile_hits == 1
        assert s1.l1_misses == s2.l1_misses and s1.cycles != s2.cycles

    def test_machine_geometry_splits_stats(self, store):
        # Another config family (line size, set count) needs its own
        # profile: a second build and a second .npz.
        (s1,) = cached_multiply_stats("standard", "LZ", 32, 8, [ultrasparc_like()], store=store)
        (s2,) = cached_multiply_stats("standard", "LZ", 32, 8, [modern_like()], store=store)
        assert store.profile_misses == 2 and store.profile_hits == 0
        assert len(list(store.root.rglob("*.npz"))) == 2
        assert s1 != s2

    def test_include_tlb_splits_stats(self, store, builds):
        (s1,) = cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
        (s2,) = cached_multiply_stats(
            "standard", "LZ", 32, 8, [MACH], include_tlb=False, store=store
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

    def test_profile_keys_are_pinned(self):
        """Literal content keys: a change that moves them turns every
        warm store cold, so it must show here first."""
        key = store_mod._profile_key
        assert key(FIELDS, ultrasparc_like()) == (
            "8fe4d9bf93aa1ea096165525ed29aec74513bc1c9552f16ae7a11f6386d1e0fe"
        )
        family_key = (
            "0f474c02d4d3d5d7cc7c77ba6c8d1295425d1680d1186852559a2f72018d7c08"
        )
        assert key(FIELDS, assoc_scaled(1, 1, 8)) == family_key
        assert key(FIELDS, assoc_scaled(8, 4, 32)) == family_key
        synthetic = store_mod._synthetic_fields("dense_standard", {"n": 32, "tile": 8})
        assert key(synthetic, scaled(4)) == (
            "a222928eade4c11c1ad4c73cb8ca08c0443725667b732ec0c289b9e220599119"
        )

    def test_memo_answers_every_family_member_by_value(self, store, builds):
        """Every machine of one family, and a re-priced copy, finds the
        identical memoized profile under the same content key; another
        family or item size misses the memo."""
        grid = FIG6MS_GRID
        fields, build = _assoc_fields_build(grid[0])
        prof = store.profile(fields, grid, build)
        touched = {f"profile:{store_mod._profile_key(fields, grid[0])}": "hit"}
        for m in [*grid, dataclasses.replace(grid[5], mem=500.0, name="x")]:
            store.reset_counters()
            assert store.profile(fields, [m], _no_build) is prof
            assert store.touched_map() == touched
            assert store.counters() == _counts(1, 0)
        for other in (MACH, dataclasses.replace(grid[0], itemsize=4)):
            store.reset_counters()
            other_fields, other_build = _assoc_fields_build(other)
            assert store.profile(other_fields, [other], other_build) is not prof
            assert store.counters() == _counts(0, 1)
            assert store.touched_map() == {
                f"profile:{store_mod._profile_key(fields, other)}": "miss"
            }
        assert len(builds) == 3


class TestCachedFamily:
    """``MachineModel.family`` is computed once and kept on the object,
    where no machine form and no request key can see it."""

    @pytest.mark.parametrize(
        "factory",
        [ultrasparc_like, modern_like, lambda: scaled(4),
         lambda: assoc_scaled(2, 4, 32)],
        ids=["ultrasparc", "modern", "scaled4", "assoc"],
    )
    def test_family_read_leaves_machine_forms_unchanged(self, factory):
        m = dataclasses.replace(factory())  # a fresh object, family unread
        spec = machine_to_dict(m)
        request = parse_request(
            {"figure": "fig6sim", "params": {"n": 16, "machine": spec}}
        )
        forms = (
            dataclasses.asdict(m), spec, machine_fingerprint(m), hash(m),
            request.key(),
        )
        assert m.family is m.family is multiconfig.ConfigFamily.of(m)
        assert (
            dataclasses.asdict(m), machine_to_dict(m), machine_fingerprint(m),
            hash(m), request.key(),
        ) == forms
        assert m == dataclasses.replace(m)
        assert hash(dataclasses.replace(m)) == hash(m)

    def test_pickled_machine_prices_the_same(self, store):
        m = dataclasses.replace(MACH)
        unread = pickle.loads(pickle.dumps(m))
        family = m.family  # read before the second pickle
        read = pickle.loads(pickle.dumps(m))
        stats = cached_multiply_stats("standard", "LZ", 32, 8, [m], store=store)
        for copy in (unread, read):
            assert copy == m and copy.family == family
            assert cached_multiply_stats(
                "standard", "LZ", 32, 8, [copy], store=store
            ) == stats
        assert store.counters() == _counts(2, 1)


class TestBounded:
    def test_memos_stay_within_their_constants(self, store):
        """More distinct traces and families than the profile memo
        holds, and more distinct machines than assoc_scaled's memo
        holds: neither grows past its bound, and no module-level dict
        grows with the inputs."""
        modules = (store_mod, multiconfig, machine_mod)

        def module_dicts():
            return {
                (mod.__name__, name): len(value)
                for mod in modules
                for name, value in vars(mod).items()
                if isinstance(value, dict)
            }

        before = module_dicts()
        families = [scaled(f) for f in (1, 2, 4, 8)]
        for i in range(store_mod._MEMO_PROFILES // 2 + 1):
            for m in families[:2] if i % 2 else families[2:]:
                store.profile(
                    {"src": "bound-probe", "i": i}, [m],
                    lambda m=m: np.arange(64, dtype=np.int64) * m.l1.line,
                )
                assert len(store._profiles) <= store_mod._MEMO_PROFILES
        assert store.profile_misses > store_mod._MEMO_PROFILES
        assert len(store._profiles) == store_mod._MEMO_PROFILES
        memo = assoc_scaled.cache_info()
        assert memo.maxsize == machine_mod._ASSOC_MEMO_SIZE
        axes = itertools.product((1, 2, 4, 8), (1, 2, 4, 8), range(10))
        for n_args, args in enumerate(axes, 1):
            assoc_scaled(*args)
        assert n_args > memo.maxsize
        assert assoc_scaled.cache_info().currsize == memo.maxsize
        assert module_dicts() == before


class TestRobustness:
    def test_corrupt_profile_file_is_rebuilt(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
        (npz,) = list(store.root.rglob("*.npz"))
        npz.write_bytes(b"not a numpy file")
        fresh = TraceStore(root=store.root)
        again = fresh.profile(FIELDS, [MACH], BUILD)
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
        (stats,) = cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=first)
        profile = first.profile(FIELDS, [MACH], _no_build)
        (path,) = list(tmp_path.rglob("*.npz"))
        path.write_bytes(damage(path.read_bytes()))
        store = TraceStore(root=tmp_path)
        assert cached_multiply_stats(
            "standard", "LZ", 32, 8, [MACH], store=store
        ) == [stats]
        assert _same_profile(store.profile(FIELDS, [MACH], _no_build), profile)
        # The damaged profile was rebuilt once, then answered warm.
        assert store.counters() == _counts(1, 1)
        assert path.stat().st_size > 0

    def test_reset_counters(self, store):
        cached_multiply_stats("standard", "LZ", 32, 8, [MACH], store=store)
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
