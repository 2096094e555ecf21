"""Capped stack distances and multi-config reuse profiles vs. the oracles.

The capped engine (:func:`repro.memsim.engines.stack_distances`) must
return exactly ``min(sd, cap)`` per access, a first touch counting as
``cap``, and one :class:`ReuseProfile` must answer *every* LRU
configuration of a set family with the exact numbers a per-access
:class:`LRUCache` hierarchy (L1, then L2 on the L1-miss stream, then a
one-set TLB) produces.  Every test here asserts full equality — whole
distance arrays, or :class:`MemoryStats` integers and the float cycle
total — across random traces and (associativity, set count, TLB size)
grids, plus cyclic at-capacity thrash, the forced ``_RESIDUAL_BUDGET``
walk, and the single-set and degenerate edge cases.
"""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim import engines
from repro.memsim.cache import LRUCache, simulate_lru
from repro.memsim.engines import set_stack_distances, stack_distances
from repro.memsim.hierarchy import MemoryStats, simulate_hierarchy
from repro.memsim.machine import (
    CacheGeometry,
    MachineModel,
    assoc_scaled,
    modern_like,
    scaled,
    ultrasparc_like,
)
from repro.memsim.multiconfig import ConfigFamily, ReuseProfile, build_profile

#: Caps every distance oracle comparison runs at.
CAPS = (1, 2, 3, 8, 64)


def oracle_stack_distances(keys, cap):
    """Brute-force capped distinct-count oracle (ground truth)."""
    out = np.full(len(keys), cap, dtype=np.int32)
    last = {}
    for i, k in enumerate(keys):
        if k in last:
            out[i] = min(cap, len(set(keys[last[k] + 1 : i])))
        last[k] = i
    return out


def oracle_fa_hits(keys, capacity):
    """Dict-based fully-associative LRU hit mask (ground truth)."""
    stack: dict[int, None] = {}
    out = np.zeros(len(keys), dtype=bool)
    for i, k in enumerate(keys):
        if k in stack:
            del stack[k]
            out[i] = True
        elif len(stack) >= capacity:
            del stack[next(iter(stack))]
        stack[k] = None
    return out


def oracle_hierarchy(addresses, machine, include_tlb=True):
    """Per-access :class:`LRUCache` hierarchy priced like the model."""
    l1, l2 = LRUCache(machine.l1), LRUCache(machine.l2)
    tlb = None
    if include_tlb and machine.tlb_entries > 0:
        entries = machine.tlb_entries
        tlb = LRUCache(CacheGeometry(entries * machine.page, machine.page, entries))
    l1_misses = l2_misses = tlb_misses = 0
    for a in (int(x) for x in addresses):
        if l1.access(a):
            l1_misses += 1
            l2_misses += l2.access(a)
        if tlb is not None:
            tlb_misses += tlb.access(a)
    n = len(addresses)
    cycles = (
        n * machine.l1_hit
        + l1_misses * machine.l2_hit
        + l2_misses * machine.mem
        + tlb_misses * machine.tlb_miss
    )
    return MemoryStats(n, l1_misses, l2_misses, tlb_misses, cycles)


def assert_priced_like_oracle(prof, addresses, machine, include_tlb=True):
    """Profile query and simulate_hierarchy both equal the oracle."""
    want = oracle_hierarchy(addresses, machine, include_tlb=include_tlb)
    assert prof.query(machine, include_tlb=include_tlb) == want
    assert simulate_hierarchy(addresses, machine, include_tlb=include_tlb) == want


key_lists = st.lists(st.integers(0, 40), min_size=0, max_size=300)


def family_machine(l1_assoc=1, l2_assoc=1, tlb_entries=16):
    """One member of a fixed (line, n_sets) family: 8-set L1 (16B
    lines), 16-set L2 (32B lines), 256B pages — small enough that tiny
    random traces exercise every level."""
    return MachineModel(
        name=f"tiny-l1w{l1_assoc}-l2w{l2_assoc}-tlb{tlb_entries}",
        l1=CacheGeometry(8 * 16 * l1_assoc, 16, l1_assoc),
        l2=CacheGeometry(16 * 32 * l2_assoc, 32, l2_assoc),
        tlb_entries=tlb_entries,
        page=256,
    )


#: One build for these prices every family member with an L1 of 1, 2, 4
#: or 8 ways, at most 8 L2 ways and at most 64 TLB entries.
GRID = [family_machine(a, 8, 64) for a in (1, 2, 4, 8)]


class TestStackDistances:
    @given(key_lists, st.sampled_from(CAPS))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, keys, cap):
        arr = np.array(keys, dtype=np.int64)
        assert np.array_equal(
            stack_distances(arr, cap), oracle_stack_distances(keys, cap)
        )

    @given(key_lists, st.sampled_from(CAPS))
    @settings(max_examples=40, deadline=None)
    def test_scalar_fallback_matches_oracle(self, keys, cap):
        # A zero budget sends every counted window to the capped walk.
        arr = np.array(keys, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engines, "_RESIDUAL_BUDGET", 0)
            got = stack_distances(arr, cap)
        assert np.array_equal(got, oracle_stack_distances(keys, cap))

    @given(key_lists, st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_capacity_sweep_matches_lru_mask(self, keys, capacity):
        # One array capped at 64 answers every capacity up to 64.
        sd = stack_distances(np.array(keys, dtype=np.int64), 64)
        assert np.array_equal(sd < capacity, oracle_fa_hits(keys, capacity))

    @given(st.integers(2, 30), st.integers(1, 35), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_cyclic_thrash_chains(self, capacity, period, reps):
        # Lockstep-chain tier: loop streams straddling the cap.
        keys = np.tile(np.arange(period, dtype=np.int64), reps * 4)
        for cap in (*CAPS, capacity):
            assert np.array_equal(
                stack_distances(keys, cap),
                oracle_stack_distances(keys.tolist(), cap),
            )

    def test_forced_scalar_fallback_path(self, monkeypatch):
        rng = np.random.default_rng(7)
        keys = np.concatenate(
            [rng.integers(0, 500, 4000), np.tile(np.arange(40), 30)]
        ).astype(np.int64)
        want = {cap: oracle_stack_distances(keys.tolist(), cap) for cap in CAPS}
        walked = []
        walk = engines._scalar_capped
        monkeypatch.setattr(engines, "_RESIDUAL_BUDGET", 0)
        monkeypatch.setattr(
            engines,
            "_scalar_capped",
            lambda keys, idx, cap: walked.append(cap) or walk(keys, idx, cap),
        )
        for cap in CAPS:
            assert np.array_equal(stack_distances(keys, cap), want[cap])
        # The residual of the larger caps really took the walk.
        assert {8, 64} <= set(walked)

    def test_empty_and_degenerate(self):
        assert stack_distances(np.zeros(0, dtype=np.int64), 8).size == 0
        same = np.zeros(50, dtype=np.int64)
        for cap in CAPS:
            sd = stack_distances(same, cap)
            assert sd[0] == cap and (sd[1:] == 0).all()
        assert not stack_distances(np.arange(10), 0).any()
        with pytest.raises(ValueError):
            stack_distances(same, -1)


class TestSetStackDistances:
    @given(key_lists, st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 3, 8]))
    @settings(max_examples=60, deadline=None)
    def test_any_assoc_matches_streaming_engine(self, lines, n_sets, assoc):
        # One array capped at 8 answers every associativity up to 8 of
        # the (line, n_sets) family, per-access LRUCache as the oracle.
        line = 32
        arr = np.array(lines, dtype=np.int64)
        miss = set_stack_distances(arr, n_sets, 8) >= assoc
        geom = CacheGeometry(line * assoc * n_sets, line, assoc)
        assert np.array_equal(miss, simulate_lru(arr * line, geom))

    def test_single_set_is_fully_associative(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 30, 500)
        for cap in CAPS:
            assert np.array_equal(
                set_stack_distances(lines, 1, cap), stack_distances(lines, cap)
            )


class TestProfileVsStreaming:
    """Profiles and simulate_hierarchy against the per-access oracle."""

    @given(
        st.lists(st.integers(0, 1 << 12), min_size=0, max_size=250),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([0, 3, 16, 64]),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_traces_any_config(self, words, l1a, l2a, tlb):
        addresses = np.array(words, dtype=np.int64) * 8
        prof = build_profile(addresses, GRID)
        machine = family_machine(l1a, l2a, tlb)
        for include_tlb in (True, False):
            assert_priced_like_oracle(prof, addresses, machine, include_tlb)

    def test_full_family_grid_from_one_build(self):
        rng = np.random.default_rng(11)
        addresses = (rng.integers(0, 1 << 13, 6000) * 8).astype(np.int64)
        prof = build_profile(addresses, GRID)
        for l1a, l2a, tlb in itertools.product(
            (1, 2, 4, 8), (1, 2, 4, 8), (0, 4, 16, 64)
        ):
            machine = family_machine(l1a, l2a, tlb)
            assert prof.supports(machine)
            assert_priced_like_oracle(prof, addresses, machine)

    @pytest.mark.parametrize(
        "factory", [ultrasparc_like, modern_like, scaled, assoc_scaled]
    )
    def test_real_machines(self, factory):
        rng = np.random.default_rng(13)
        addresses = (rng.integers(0, 1 << 17, 20000) * 8).astype(np.int64)
        machine = factory()
        assert_priced_like_oracle(
            build_profile(addresses, [machine]), addresses, machine
        )

    def test_empty_trace(self):
        machine = family_machine()
        addresses = np.zeros(0, dtype=np.int64)
        assert_priced_like_oracle(
            build_profile(addresses, [machine]), addresses, machine
        )

    def test_single_address_and_same_address(self):
        machine = family_machine()
        for addresses in (
            np.array([64], dtype=np.int64),
            np.full(100, 4096, dtype=np.int64),
        ):
            prof = build_profile(addresses, [machine])
            assert_priced_like_oracle(prof, addresses, machine)

    def test_assoc_above_distinct_lines_never_misses_warm(self):
        addresses = np.tile(np.arange(4, dtype=np.int64) * 16, 50)
        machine = family_machine(8, 4, 16)  # 8-way: 4 lines always fit
        prof = build_profile(addresses, [machine])
        assert_priced_like_oracle(prof, addresses, machine)
        assert prof.query(machine).l1_misses == 4  # cold misses only

    def test_machine_caps_profile_prices_only_its_machine(self):
        rng = np.random.default_rng(29)
        addresses = (rng.integers(0, 1 << 12, 3000) * 8).astype(np.int64)
        machine = family_machine(2, 4, 3)
        prof = build_profile(addresses, [machine])
        assert list(prof.l2) == [2]
        assert prof.l1_hist.size == 3 and prof.l2[2].size == 5
        assert prof.tlb_hist.size == 4
        assert_priced_like_oracle(prof, addresses, machine)
        assert not prof.supports(family_machine(4, 4, 3))
        assert not prof.supports(family_machine(2, 8, 3))
        assert not prof.supports(family_machine(2, 4, 16))


class TestProfileObject:
    def test_supports_rejects_other_family(self):
        machine = family_machine()
        prof = build_profile(np.arange(100, dtype=np.int64) * 8, [machine])
        other = ultrasparc_like()
        assert ConfigFamily.of(other) != prof.family
        assert not prof.supports(other)
        with pytest.raises(ValueError):
            prof.query(other)

    def test_supports_rejects_missing_assoc(self):
        prof = build_profile(np.arange(100, dtype=np.int64) * 8, GRID)
        odd = family_machine(l1_assoc=3)
        assert 3 not in prof.l2 and not prof.supports(odd)

    def test_caps_bound_the_supported_grid(self):
        prof = build_profile(np.arange(100, dtype=np.int64) * 8, GRID)
        assert prof.l1_hist.size == 9
        assert prof.tlb_hist.size == 65
        assert not prof.supports(family_machine(l2_assoc=16))
        assert not prof.supports(family_machine(tlb_entries=128))
        wide = build_profile(
            np.arange(100, dtype=np.int64) * 8,
            [*GRID, family_machine(16, 16, 128)],
        )
        assert wide.supports(family_machine(16, 16, 128))
        assert all(map(wide.supports, GRID))

    def test_machines_must_share_a_family(self):
        with pytest.raises(ValueError, match="one config family"):
            build_profile(
                np.arange(100, dtype=np.int64) * 8,
                [family_machine(), ultrasparc_like()],
            )

    def test_reach_rebuilds_the_same_profile(self):
        """A build for a profile's :meth:`~ReuseProfile.reach` machines
        reproduces it bin for bin: the store widens a stored profile
        through them, and a rebuild never narrows it."""
        rng = np.random.default_rng(37)
        addresses = (rng.integers(0, 1 << 12, 3000) * 8).astype(np.int64)
        prof = build_profile(
            addresses, [family_machine(2, 4, 16), family_machine(8, 1, 3)]
        )
        again = build_profile(addresses, prof.reach())
        assert again.family == prof.family
        assert np.array_equal(again.l1_hist, prof.l1_hist)
        assert np.array_equal(again.tlb_hist, prof.tlb_hist)
        assert again.l2.keys() == prof.l2.keys() == {2, 8}
        assert all(np.array_equal(again.l2[a], prof.l2[a]) for a in prof.l2)

    def test_npz_roundtrip(self):
        rng = np.random.default_rng(23)
        addresses = (rng.integers(0, 1 << 12, 2000) * 8).astype(np.int64)
        prof = build_profile(
            addresses, [family_machine(a, 2, 8) for a in (1, 2, 4, 8)]
        )
        buf = io.BytesIO()
        prof.save(buf)
        buf.seek(0)
        loaded = ReuseProfile.load(buf)
        assert loaded.family == prof.family
        assert loaded.accesses == prof.accesses
        assert sorted(loaded.l2) == sorted(prof.l2)
        # The histograms are the stored form; the miss tails a query
        # reads are derived again on load and price every family member
        # within the caps as the built profile does.
        assert np.array_equal(loaded.l1_hist, prof.l1_hist)
        assert np.array_equal(loaded.tlb_hist, prof.tlb_hist)
        for a, l2_assoc, tlb in itertools.product((1, 2, 4, 8), (1, 2), range(9)):
            m = family_machine(a, l2_assoc, tlb)
            assert loaded.query(m) == prof.query(m)

    def test_query_matches_histogram_suffix_sums(self):
        """A directly constructed profile prices from its precomputed
        miss tails exactly what summing the histograms' tails gives."""
        rng = np.random.default_rng(41)
        machine = family_machine()
        hists = {
            name: rng.integers(0, 1000, size, dtype=np.int64)
            for name, size in (("l1", 9), ("tlb", 65), ("l2_1", 9), ("l2_4", 9))
        }
        prof = ReuseProfile(
            machine.family, 10_000, hists["l1"], hists["tlb"],
            {1: hists["l2_1"], 4: hists["l2_4"]},
        )
        for l1_assoc, l2_assoc, tlb, include_tlb in itertools.product(
            (1, 4), range(1, 9), (0, 1, 16, 64), (True, False)
        ):
            m = family_machine(l1_assoc, l2_assoc, tlb)
            l1_misses = int(hists["l1"][l1_assoc:].sum())
            l2_misses = int(hists[f"l2_{l1_assoc}"][l2_assoc:].sum())
            tlb_misses = (
                int(hists["tlb"][tlb:].sum()) if include_tlb and tlb > 0 else 0
            )
            cycles = (
                10_000 * m.l1_hit + l1_misses * m.l2_hit
                + l2_misses * m.mem + tlb_misses * m.tlb_miss
            )
            assert prof.query(m, include_tlb=include_tlb) == MemoryStats(
                10_000, l1_misses, l2_misses, tlb_misses, cycles
            )
        with pytest.raises(ValueError):
            prof.query(family_machine(2))

    def test_version_skew_rejected(self):
        buf = io.BytesIO()
        np.savez(buf, meta=np.array([1, 0, 0, 0], dtype=np.int64))
        buf.seek(0)
        with pytest.raises(ValueError):
            ReuseProfile.load(buf)

    def test_canonical_assocs_precomputed(self):
        """fig6ms's default L1 axis (1, 2, 4, 8): one build holds an L2
        histogram for exactly the associativities asked for."""
        machines = [family_machine(a) for a in (1, 2, 4, 8)]
        prof = build_profile(np.arange(64, dtype=np.int64) * 8, machines)
        assert sorted(prof.l2) == [1, 2, 4, 8]
        assert build_profile(np.arange(64) * 8, machines[1:2]).l2.keys() == {2}
