"""The BLAS-3 compatible dgemm interface."""

import numpy as np
import pytest

from repro.algorithms.dgemm import ALGORITHMS, dgemm, matmul
from repro.matrix.tile import TileRange
from tests.conftest import ALL_ALGORITHMS

TR = TileRange(8, 16)


@pytest.fixture
def abc(rng):
    m, k, n = 40, 56, 33
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c = np.asfortranarray(rng.standard_normal((m, n)))
    return a, b, c


class TestBasicProduct:
    @pytest.mark.parametrize("algo", ALL_ALGORITHMS)
    @pytest.mark.parametrize("layout", ["LC", "LU", "LX", "LZ", "LG", "LH"])
    def test_all_combinations(self, algo, layout, abc):
        a, b, _ = abc
        r = dgemm(a, b, algorithm=algo, layout=layout, trange=TR)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)

    def test_matmul_wrapper(self, abc):
        a, b, _ = abc
        np.testing.assert_allclose(matmul(a, b, trange=TR), a @ b, atol=1e-9)

    def test_output_is_fortran(self, abc):
        a, b, _ = abc
        assert dgemm(a, b, trange=TR).c.flags["F_CONTIGUOUS"]


class TestAlphaBeta:
    def test_full_dgemm_semantics(self, abc):
        a, b, c = abc
        r = dgemm(a, b, c, alpha=2.5, beta=-0.5, trange=TR)
        np.testing.assert_allclose(r.c, 2.5 * (a @ b) - 0.5 * c, atol=1e-9)

    def test_alpha_zero(self, abc):
        a, b, c = abc
        r = dgemm(a, b, c, alpha=0.0, beta=3.0, trange=TR)
        np.testing.assert_allclose(r.c, 3.0 * c, atol=1e-9)

    def test_beta_requires_c(self, abc):
        a, b, _ = abc
        with pytest.raises(ValueError):
            dgemm(a, b, beta=1.0)

    def test_c_shape_checked(self, abc):
        a, b, _ = abc
        with pytest.raises(ValueError):
            dgemm(a, b, np.zeros((3, 3)), beta=1.0)

    def test_c_not_mutated(self, abc):
        a, b, c = abc
        c_orig = c.copy()
        dgemm(a, b, c, beta=2.0, trange=TR)
        np.testing.assert_array_equal(c, c_orig)


class TestTransposes:
    def test_op_a(self, abc):
        a, b, _ = abc
        r = dgemm(np.asfortranarray(a.T), b, op_a="T", trange=TR)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)

    def test_op_b(self, abc):
        a, b, _ = abc
        r = dgemm(a, np.asfortranarray(b.T), op_b="T", trange=TR)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)

    def test_both(self, abc):
        a, b, _ = abc
        r = dgemm(
            np.asfortranarray(a.T), np.asfortranarray(b.T),
            op_a="T", op_b="T", trange=TR,
        )
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)

    def test_transpose_with_partition(self, rng):
        # Wide op(A) exercises fused transpose inside block slicing.
        a = rng.standard_normal((30, 400))  # op(A) = a.T is 400 x 30: wide
        b = rng.standard_normal((30, 25))
        r = dgemm(a, b, op_a="T", trange=TileRange(8, 16))
        np.testing.assert_allclose(r.c, a.T @ b, atol=1e-9)

    def test_invalid_op(self, abc):
        a, b, _ = abc
        with pytest.raises(ValueError):
            dgemm(a, b, op_a="X")


class TestPartitionedShapes:
    def test_wide_a(self, rng):
        a = rng.standard_normal((400, 30))
        b = rng.standard_normal((30, 30))
        r = dgemm(a, b, trange=TileRange(8, 16))
        assert r.partition.p_m > 1
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)

    def test_lean_b(self, rng):
        a = rng.standard_normal((30, 30))
        b = rng.standard_normal((30, 400))
        r = dgemm(a, b, trange=TileRange(8, 16))
        assert r.partition.p_n > 1
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)

    def test_long_inner_dimension(self, rng):
        a = rng.standard_normal((24, 500))
        b = rng.standard_normal((500, 24))
        r = dgemm(a, b, trange=TileRange(8, 16))
        assert r.partition.p_k > 1
        np.testing.assert_allclose(r.c, a @ b, atol=1e-8)

    @pytest.mark.parametrize("algo", ALL_ALGORITHMS)
    def test_partition_with_fast_algorithms(self, algo, rng):
        a = rng.standard_normal((200, 20))
        b = rng.standard_normal((20, 20))
        r = dgemm(a, b, algorithm=algo, trange=TileRange(8, 16))
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)

    def test_partition_with_canonical_layout(self, rng):
        a = rng.standard_normal((300, 20))
        b = rng.standard_normal((20, 30))
        r = dgemm(a, b, layout="LC", trange=TileRange(8, 16))
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)


class TestFixedTile:
    def test_forced_tile(self, abc):
        a, b, _ = abc
        r = dgemm(a, b, tile=8)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-9)
        # Fixed tile is an upper bound; uneven dims shrink some tiles.
        assert max(r.tiling.t_m, r.tiling.t_k, r.tiling.t_n) <= 8
        assert r.tiling.t_k == 7 and r.tiling.d == 3  # ceil(56 / 8)

    def test_element_level_tile(self, rng):
        # tile=1: Frens & Wise's element-level recursion.
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        r = dgemm(a, b, tile=1)
        assert r.tiling.d == 3
        np.testing.assert_allclose(r.c, a @ b, atol=1e-10)

    def test_whole_matrix_tile(self, rng):
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12))
        r = dgemm(a, b, tile=16)
        assert r.tiling.d == 0
        np.testing.assert_allclose(r.c, a @ b, atol=1e-10)


class TestValidationAndStats:
    def test_inner_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            dgemm(rng.standard_normal((4, 5)), rng.standard_normal((6, 4)))

    def test_non_2d(self, rng):
        with pytest.raises(ValueError):
            dgemm(rng.standard_normal(5), rng.standard_normal((5, 5)))

    def test_unknown_algorithm(self, abc):
        a, b, _ = abc
        with pytest.raises(KeyError):
            dgemm(a, b, algorithm="coppersmith")

    def test_registry(self):
        assert set(ALGORITHMS) == {
            "standard", "strassen", "winograd", "hybrid", "strassen_space",
        }

    def test_stats_populated(self, abc):
        a, b, _ = abc
        r = dgemm(a, b, trange=TR)
        assert r.total_seconds > 0
        assert r.compute_seconds > 0
        assert r.conversion.count >= 3  # A, B in; C out
        assert 0 < r.conversion_fraction < 1
        assert r.counters.multiply_flops > 0
        assert r.pad_ratio >= 0

    def test_lc_stats(self, abc):
        # Canonical layout charges only padding as conversion.
        a, b, _ = abc
        r = dgemm(a, b, layout="LC", trange=TR)
        assert r.conversion.count >= 3

    def test_instrument_flops_match_opcount(self, rng):
        # Every layout streams exactly the additions the recurrence
        # counts (dgemm accumulates into its C target) and copies none.
        from repro.algorithms.opcount import op_count
        from repro.layouts.registry import PAPER_LAYOUTS

        n = 32
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        for algo in ALL_ALGORITHMS:
            for layout in PAPER_LAYOUTS:
                r = dgemm(a, b, tile=8, algorithm=algo, layout=layout)
                padded = r.tiling.padded[0]
                expect = op_count(algo, padded, 8, accumulate=True)
                got = r.counters
                assert got.multiply_flops == expect.multiply_flops, (algo, layout)
                assert got.leaf_multiplies == expect.leaf_multiplies, (algo, layout)
                assert got.add_elements == expect.add_elements, (algo, layout)
                assert got.copy_elements == 0, (algo, layout)


class TestDtypes:
    def test_float32(self, rng):
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        r = dgemm(a, b, tile=4)
        assert r.c.dtype == np.float32
        np.testing.assert_allclose(r.c, a @ b, atol=1e-4)

    def test_mixed_promotes(self, rng):
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16))
        r = dgemm(a, b, tile=4)
        assert r.c.dtype == np.float64
