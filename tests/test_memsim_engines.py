"""The capped stack-distance engine's hit/miss masks vs. the scalar oracles.

The masks over :mod:`repro.memsim.engines` must be *bit-exact*
replacements for the reference simulators (:class:`LRUCache` and a dict
LRU walk): every test here asserts full miss-mask equality, not summary
statistics, across associativities 1, 2, 4, 8 and fully-associative,
including the adversarial patterns (cyclic thrash just above capacity)
that exercise the lockstep-chain tier, and forced tiny budgets that
exercise the scalar fallback.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memsim import engines
from repro.memsim.cache import LRUCache, miss_count, simulate_lru
from repro.memsim.engines import (
    lru_hit_mask,
    prev_occurrence,
    set_stack_distances,
    simulate_set_associative,
    stable_argsort_bounded,
    stack_distances,
)
from repro.memsim.machine import CacheGeometry


def oracle_fa_hits(keys, capacity):
    """Dict-based fully-associative LRU hit mask (ground truth)."""
    stack: dict[int, None] = {}
    out = np.zeros(len(keys), dtype=bool)
    for i, k in enumerate(int(x) for x in keys):
        if k in stack:
            del stack[k]
            out[i] = True
        elif len(stack) >= capacity:
            del stack[next(iter(stack))]
        stack[k] = None
    return out


# -- hypothesis strategies ---------------------------------------------

key_lists = st.lists(st.integers(0, 40), min_size=0, max_size=400)
capacities = st.integers(1, 64)


class TestFullyAssociative:
    @given(key_lists, capacities)
    @settings(max_examples=60, deadline=None)
    def test_hit_mask_matches_oracle(self, keys, capacity):
        arr = np.array(keys, dtype=np.int64)
        got = lru_hit_mask(arr, capacity)
        assert np.array_equal(got, oracle_fa_hits(keys, capacity))

    @given(st.integers(2, 40), st.integers(1, 45), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_cyclic_thrash(self, capacity, period, reps):
        # Periods straddling the capacity boundary: just-fits streams
        # hit after warm-up, just-misses streams thrash every access.
        keys = np.tile(np.arange(period, dtype=np.int64), reps * 4)
        got = lru_hit_mask(keys, capacity)
        assert np.array_equal(got, oracle_fa_hits(keys.tolist(), capacity))

    def test_empty_trace(self):
        assert lru_hit_mask(np.zeros(0, dtype=np.int64), 8).size == 0

    def test_cold_start_all_miss(self):
        keys = np.arange(100, dtype=np.int64)
        assert not lru_hit_mask(keys, 16).any()

    def test_capacity_one(self):
        keys = np.array([5, 5, 7, 5, 7, 7], dtype=np.int64)
        got = lru_hit_mask(keys, 1)
        assert got.tolist() == [False, True, False, False, False, True]

    def test_alias(self):
        # The mask is a view of the capped engine, not a second algorithm.
        keys = np.array([0, 1, 2, 0, 1, 2, 3, 0], dtype=np.int64)
        assert np.array_equal(lru_hit_mask(keys, 3), stack_distances(keys, 3) < 3)
        assert lru_hit_mask(keys, 3).tolist() == [False] * 3 + [True] * 3 + [False] * 2

    def test_locality_stream(self):
        # Mixed reuse distances crossing every decision tier.
        rng = np.random.default_rng(11)
        keys = np.concatenate(
            [
                rng.integers(0, 2000, 3000),  # long distances
                np.tile(np.arange(48), 60).ravel(),  # lockstep chains
                rng.integers(0, 24, 2000),  # short distances
            ]
        ).astype(np.int64)
        for cap in (1, 2, 16, 64, 512):
            assert np.array_equal(
                lru_hit_mask(keys, cap), oracle_fa_hits(keys.tolist(), cap)
            )


class TestScalarFallback:
    def test_forced_fallback_is_exact(self, monkeypatch):
        # A zero budget (gathered elements per access) sends every
        # residual window to the capped stack walk.
        monkeypatch.setattr(engines, "_RESIDUAL_BUDGET", 0)
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 300, 4000).astype(np.int64)
        for cap in (4, 32, 128):
            assert np.array_equal(
                lru_hit_mask(keys, cap), oracle_fa_hits(keys.tolist(), cap)
            )

    def test_chain_gate_off_path(self):
        # A pure cycle with period just above capacity defeats distance
        # bounds; only the chain tier (or fallback) decides it exactly.
        for cap in (31, 32, 33):
            keys = np.tile(np.arange(33, dtype=np.int64), 40)
            assert np.array_equal(
                lru_hit_mask(keys, cap), oracle_fa_hits(keys.tolist(), cap)
            )


class TestSetAssociative:
    @given(
        st.lists(st.integers(0, 4095), min_size=0, max_size=300),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_lru(self, addrs, assoc, sets_log2):
        line = 32
        n_sets = 1 << sets_log2
        geom = CacheGeometry(line * assoc * n_sets, line, assoc)
        addresses = np.array(addrs, dtype=np.int64) * 8
        got = simulate_set_associative(addresses, geom)
        ref = simulate_lru(addresses, geom)
        assert np.array_equal(got, ref)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_single_set_is_fully_associative(self, lines):
        arr = np.array(lines, dtype=np.int64)
        miss = set_stack_distances(arr, 1, 16) >= 16
        assert np.array_equal(~miss, oracle_fa_hits(lines, 16))

    def test_miss_count_dispatch(self):
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 1 << 16, 5000).astype(np.int64)
        for assoc in (1, 2, 8):
            geom = CacheGeometry(4096, 64, assoc)
            assert miss_count(addresses, geom) == int(
                simulate_lru(addresses, geom).sum()
            )

    def test_full_assoc_geometry(self):
        geom = CacheGeometry(1024, 32, 32)  # n_sets == 1
        rng = np.random.default_rng(7)
        addresses = rng.integers(0, 1 << 13, 2000).astype(np.int64)
        assert np.array_equal(
            simulate_set_associative(addresses, geom),
            simulate_lru(addresses, geom),
        )

    def test_oracle_class_agrees_per_access(self):
        geom = CacheGeometry(2048, 32, 4)
        rng = np.random.default_rng(9)
        addresses = rng.integers(0, 1 << 14, 1000).astype(np.int64)
        cache = LRUCache(geom)
        ref = np.array([cache.access(int(a)) for a in addresses])
        assert np.array_equal(simulate_set_associative(addresses, geom), ref)


class TestPrimitives:
    @given(st.lists(st.integers(0, 30), min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_prev_occurrence(self, keys):
        arr = np.array(keys, dtype=np.int64)
        prev = prev_occurrence(arr)
        last: dict[int, int] = {}
        for i, k in enumerate(keys):
            assert prev[i] == last.get(k, -1)
            last[k] = i

    @given(st.lists(st.integers(0, 1 << 20), min_size=0, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_stable_argsort(self, keys):
        arr = np.array(keys, dtype=np.int64)
        assert np.array_equal(
            stable_argsort_bounded(arr), np.argsort(arr, kind="stable")
        )
