"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bits.gray import gray_decode, gray_encode, gray_decode_scalar, gray_encode_scalar
from repro.bits.morton import deinterleave_scalar, interleave_scalar
from repro.bits.hilbert import hilbert_s_inv_scalar, hilbert_s_scalar
from repro.layouts.registry import get_layout
from repro.layouts.tiled import TiledLayout
from repro.matrix.convert import from_tiled, to_tiled
from repro.matrix.tile import (
    TileRange,
    Tiling,
    matmul_tiling_for_fixed_tile,
    InfeasibleTiling,
)
from repro.matrix import partition
from repro.matrix.partition import plan_partition

LAYOUT_NAMES = st.sampled_from(["LU", "LX", "LZ", "LG", "LH"])


class TestBitProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_interleave_roundtrip(self, u, v):
        assert deinterleave_scalar(interleave_scalar(u, v)) == (u, v)

    @given(st.integers(0, 2**62))
    def test_gray_roundtrip(self, x):
        assert gray_decode_scalar(gray_encode_scalar(x)) == x

    @given(st.integers(0, 2**62 - 1))
    def test_gray_adjacent_one_bit(self, x):
        d = gray_encode_scalar(x) ^ gray_encode_scalar(x + 1)
        assert d != 0 and d & (d - 1) == 0

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=50))
    def test_gray_vectorized_matches_scalar(self, xs):
        arr = np.array(xs, dtype=np.uint64)
        enc = gray_encode(arr)
        for x, g in zip(xs, enc):
            assert gray_encode_scalar(x) == int(g)
        np.testing.assert_array_equal(gray_decode(enc), arr)

    @given(st.integers(1, 10), st.data())
    def test_hilbert_roundtrip(self, order, data):
        side = 1 << order
        i = data.draw(st.integers(0, side - 1))
        j = data.draw(st.integers(0, side - 1))
        s = hilbert_s_scalar(i, j, order)
        assert hilbert_s_inv_scalar(s, order) == (i, j)


class TestLayoutProperties:
    @given(LAYOUT_NAMES, st.integers(1, 6), st.data())
    def test_s_inverse(self, name, order, data):
        lay = get_layout(name)
        side = 1 << order
        i = data.draw(st.integers(0, side - 1))
        j = data.draw(st.integers(0, side - 1))
        s = lay.s_scalar(i, j, order)
        assert 0 <= s < side * side
        assert lay.s_inv_scalar(s, order) == (i, j)

    @given(LAYOUT_NAMES, st.integers(1, 4))
    def test_quadrant_rank_is_permutation_every_orientation(self, name, order):
        lay = get_layout(name)
        for o in range(lay.n_orientations):
            ranks = {
                lay.quadrant_rank(o, qi, qj) for qi in (0, 1) for qj in (0, 1)
            }
            assert ranks == {0, 1, 2, 3}

    @given(
        LAYOUT_NAMES,
        st.integers(0, 3),
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_tiled_address_bijective_sample(self, name, d, t_r, t_c, data):
        tl = TiledLayout.create(name, d, t_r, t_c)
        i = data.draw(st.integers(0, tl.rows - 1))
        j = data.draw(st.integers(0, tl.cols - 1))
        addr = tl.address_scalar(i, j)
        assert 0 <= addr < tl.n_elements
        ci, cj = tl.coords(np.asarray([addr]))
        assert (int(ci[0]), int(cj[0])) == (i, j)


class TestConversionProperties:
    @settings(deadline=None, max_examples=30)
    @given(
        LAYOUT_NAMES,
        st.integers(1, 20),
        st.integers(1, 20),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_roundtrip_any_shape(self, name, m, n, transpose, _r):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((m, n))
        lm, ln = (n, m) if transpose else (m, n)
        # Smallest grid with tiles <= 4 per side.
        d = 0
        while max(-(-lm // (1 << d)), -(-ln // (1 << d))) > 4:
            d += 1
        t = Tiling(d, -(-lm // (1 << d)), -(-ln // (1 << d)), lm, ln)
        tm = to_tiled(a, name, t, transpose=transpose)
        expect = a.T if transpose else a
        np.testing.assert_array_equal(from_tiled(tm), expect)


class TestTilingProperties:
    @settings(max_examples=60)
    @given(st.integers(16, 3000), st.integers(16, 3000))
    def test_pad_bound(self, m, n):
        # Whenever a tiling exists, the paper's 1/T_min pad bound holds
        # (for dimensions at least T_min; smaller ones are exempt from
        # the tile lower bound and pad up to the square grid).
        tr = TileRange(16, 32)
        try:
            from repro.matrix.tile import select_tiling

            t = select_tiling(m, n, tr)
        except InfeasibleTiling:
            return
        # Exact bound: dim > (t-1)*2^d, pad < 2^d  =>  ratio < 1/(t-1).
        # (The paper states 1/T_min, a mild approximation.)
        assert (t.padded_m - m) / m <= 1 / (tr.t_min - 1)
        assert (t.padded_n - n) / n <= 1 / (tr.t_min - 1)

    @settings(max_examples=60)
    @given(st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 1000))
    def test_partition_always_succeeds_and_covers(self, m, k, n):
        tr = TileRange(8, 16)
        p = plan_partition(m, k, n, tr)
        prods = p.block_products()
        # Row/col coverage of C with multiplicity p_k-ish, inner covered.
        area = sum(
            (bp.row_range[1] - bp.row_range[0])
            * (bp.col_range[1] - bp.col_range[0])
            for bp in prods
            if not bp.accumulate
        )
        assert area == m * n

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 1000),
        st.integers(1, 1000),
        st.integers(1, 1000),
        st.integers(2, 32),
        st.integers(0, 32),
    )
    def test_partition_memo_is_exact(self, m, k, n, t_min, spread):
        tr = TileRange(t_min, t_min + spread)
        plan = plan_partition(m, k, n, tr)
        assert plan == partition._search_partition.__wrapped__(m, k, n, tr)
        assert plan_partition(m, k, n, tr) is plan

    def test_partition_memo_shares_default_entry_and_is_bounded(self):
        memo = partition._search_partition
        memo.cache_clear()
        plan = plan_partition(300, 40, 35)
        assert plan_partition(300, 40, 35, TileRange()) is plan
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.maxsize == partition._PLAN_MEMO_SIZE
        assert 0 < info.maxsize < 10_000

    @settings(max_examples=40)
    @given(st.integers(1, 500), st.integers(1, 64))
    def test_fixed_tile_geometry(self, n, t):
        mt = matmul_tiling_for_fixed_tile(n, n, n, t)
        assert mt.t_m <= t
        assert mt.padded[0] >= n
        # d minimal: one level shallower would overflow the tile bound.
        if mt.d > 0:
            assert -(-n // (1 << (mt.d - 1))) > t


class TestDgemmProperty:
    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(4, 40),
        st.integers(4, 40),
        st.integers(4, 40),
        st.sampled_from(["standard", "strassen", "winograd"]),
        LAYOUT_NAMES,
    )
    def test_matches_numpy(self, m, k, n, algo, layout):
        from repro.algorithms.dgemm import dgemm

        rng = np.random.default_rng(m * 10000 + k * 100 + n)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        r = dgemm(a, b, algorithm=algo, layout=layout, trange=TileRange(4, 8))
        np.testing.assert_allclose(r.c, a @ b, atol=1e-8)


class TestSchedulerProperty:
    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=40),
        st.integers(1, 8),
        st.integers(0, 5),
    )
    def test_brent_bound_random_forests(self, costs, p, seed):
        from repro.runtime.scheduler import greedy_makespan
        from repro.runtime.task import leaf, parallel, series, to_dag, work, span
        import random

        rnd = random.Random(seed)
        nodes = [leaf(c) for c in costs]
        while len(nodes) > 1:
            k = min(len(nodes), rnd.randint(2, 4))
            group = [nodes.pop() for _ in range(k)]
            comb = parallel(*group) if rnd.random() < 0.5 else series(*group)
            nodes.append(comb)
        tree = nodes[0]
        dag = to_dag(tree)
        res = greedy_makespan(dag, p)
        t1, tinf = work(tree), span(tree)
        assert res.makespan <= t1 / p + tinf + 1e-6
        assert res.makespan >= max(t1 / p, tinf) - 1e-6
