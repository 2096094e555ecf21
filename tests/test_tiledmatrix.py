"""Matrix containers and view navigation."""

import copy
import pickle

import numpy as np
import pytest

from repro.layouts.tiled import TiledLayout
from repro.matrix.convert import to_tiled
from repro.matrix.tile import Tiling
from repro.matrix.tiledmatrix import DenseMatrix, QuadView, TiledMatrix
from tests.conftest import ALL_RECURSIVE


class TestTiledMatrix:
    def test_zeros(self):
        tm = TiledMatrix.zeros("LZ", 2, 3, 4)
        assert tm.shape == (12, 16)
        assert tm.padded_shape == (12, 16)
        assert tm.buf.shape == (192,)
        assert (tm.buf == 0).all()

    def test_logical_dims(self):
        tm = TiledMatrix.zeros("LZ", 2, 3, 4, m=10, n=13)
        assert tm.shape == (10, 13)
        assert tm.padded_shape == (12, 16)

    def test_dtype(self):
        tm = TiledMatrix.zeros("LZ", 1, 2, 2, dtype=np.float32)
        assert tm.dtype == np.float32

    def test_getsetitem(self):
        tm = TiledMatrix.zeros("LH", 2, 3, 3)
        tm[5, 7] = 2.5
        assert tm[5, 7] == 2.5
        assert tm.buf[tm.layout.address_scalar(5, 7)] == 2.5

    def test_index_bounds(self):
        tm = TiledMatrix.zeros("LZ", 1, 2, 2, m=3, n=3)
        with pytest.raises(IndexError):
            tm[3, 0]
        with pytest.raises(IndexError):
            tm[0, 3] = 1.0

    def test_buffer_length_checked(self):
        lay = TiledLayout.create("LZ", 1, 2, 2)
        with pytest.raises(ValueError):
            TiledMatrix(lay, np.zeros(5), 4, 4)

    def test_requires_recursive_curve(self):
        lay = TiledLayout.create("LC", 1, 2, 2)
        with pytest.raises(TypeError):
            TiledMatrix(lay, np.zeros(16), 4, 4)

    def test_logical_dims_checked(self):
        with pytest.raises(ValueError):
            TiledMatrix.zeros("LZ", 1, 2, 2, m=5, n=4)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda tm: pickle.loads(pickle.dumps(tm))]
    )
    def test_copy_leaves_write_through_to_own_buffer(self, clone):
        tm = TiledMatrix.zeros("LH", 1, 2, 2)
        tm.root_view().quadrant(0, 0).leaf_array()  # builds the tile stack
        twin = clone(tm)
        twin.root_view().quadrant(1, 1).leaf_array()[...] = 5.0
        assert (tm.buf == 0).all()
        assert (twin.buf == 5.0).sum() == 4


@pytest.mark.parametrize("curve", ALL_RECURSIVE)
class TestQuadView:
    def test_root_geometry(self, curve):
        tm = TiledMatrix.zeros(curve, 3, 2, 5)
        v = tm.root_view()
        assert v.rows == 16 and v.cols == 40
        assert v.n_tiles == 64
        assert not v.is_leaf
        assert v.is_contiguous

    def test_quadrant_recursion_to_leaf(self, curve):
        tm = TiledMatrix.zeros(curve, 2, 3, 3)
        v = tm.root_view()
        q = v.quadrant(1, 0).quadrant(0, 1)
        assert q.is_leaf
        assert q.leaf_array().shape == (3, 3)

    def test_quadrants_disjoint_and_cover(self, curve):
        tm = TiledMatrix.zeros(curve, 2, 2, 2)
        v = tm.root_view()
        offsets = set()
        for q in v.quadrants():
            offsets.update(range(q.tile_off, q.tile_off + q.n_tiles))
        assert offsets == set(range(16))

    def test_buffer_is_view(self, curve):
        tm = TiledMatrix.zeros(curve, 2, 2, 2)
        v = tm.root_view().quadrant(0, 0)
        v.buffer()[:] = 7.0
        assert (tm.buf[v.tile_off * 4 : (v.tile_off + v.n_tiles) * 4] == 7.0).all()

    def test_leaf_array_is_fortran_view(self, curve, rng):
        a = rng.standard_normal((8, 8))
        tm = to_tiled(a, curve, Tiling(1, 4, 4, 8, 8))
        leaf = tm.root_view().quadrant(1, 1)
        np.testing.assert_array_equal(leaf.leaf_array(), a[4:, 4:])
        assert leaf.leaf_array().flags["F_CONTIGUOUS"]

    def test_quadrant_navigation_every_orientation(self, curve):
        tm = TiledMatrix.zeros(curve, 3, 2, 3)
        fsm = tm.layout.curve
        for o in range(fsm.n_orientations):
            v = QuadView(tm, 16, 2, o)  # the second d=2 quarter, oriented o
            quads = v.quadrants()
            for idx, (qi, qj) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                q = v.quadrant(qi, qj)
                rank = fsm.quadrant_rank(o, qi, qj)
                assert q.matrix is tm
                assert q.tile_off == v.tile_off + rank * v.n_tiles // 4
                assert q.d == 1
                assert q.orientation == fsm.quadrant_orientation(o, qi, qj)
                assert (q.rows, q.cols, q.n_tiles) == (4, 6, 4)
                twin = quads[idx]
                assert (twin.tile_off, twin.d, twin.orientation) == (
                    q.tile_off, q.d, q.orientation
                )

    def test_leaves_write_through_at_layout_address(self, curve):
        t_r, t_c = 2, 3
        tm = TiledMatrix.zeros(curve, 2, t_r, t_c)
        rows, cols = np.meshgrid(np.arange(t_r), np.arange(t_c), indexing="ij")
        todo = [(tm.root_view(), 0, 0)]
        leaves = 0
        while todo:
            v, ti, tj = todo.pop()
            if not v.is_leaf:
                halves = ((0, 0), (0, 1), (1, 0), (1, 1))
                for (qi, qj), q in zip(halves, v.quadrants()):
                    todo.append((q, 2 * ti + qi, 2 * tj + qj))
                continue
            leaf = v.leaf_array()
            assert leaf.shape == (t_r, t_c)
            assert leaf.flags["F_CONTIGUOUS"]
            assert np.shares_memory(leaf, tm.buf)
            vals = 100.0 * (leaves + 1) + 10 * rows + cols
            leaf[...] = vals
            addr = tm.layout.address(ti * t_r + rows, tj * t_c + cols)
            np.testing.assert_array_equal(tm.buf[addr], vals)
            leaves += 1
        assert leaves == 16
        assert (tm.buf != 0).all()

    def test_leaf_guard(self, curve):
        tm = TiledMatrix.zeros(curve, 1, 2, 2)
        with pytest.raises(ValueError):
            tm.root_view().leaf_array()
        with pytest.raises(ValueError):
            tm.root_view().quadrant(0, 0).quadrant(0, 0)

    def test_alloc_like(self, curve):
        tm = TiledMatrix.zeros(curve, 2, 3, 4)
        q = tm.root_view().quadrant(1, 1)
        t = q.alloc_like()
        assert t.rows == q.rows and t.cols == q.cols
        assert t.orientation == 0
        assert t.matrix is not tm

    def test_to_array_roundtrip(self, curve, rng):
        a = rng.standard_normal((12, 12))
        tm = to_tiled(a, curve, Tiling(2, 3, 3, 12, 12))
        np.testing.assert_array_equal(tm.root_view().to_array(), a)


class TestDenseMatrix:
    def test_zeros_fortran(self):
        dm = DenseMatrix.zeros(2, 4, 4)
        assert dm.array.flags["F_CONTIGUOUS"]
        assert dm.padded_shape == (16, 16)

    def test_zeros_c_order(self):
        dm = DenseMatrix.zeros(2, 4, 4, order="C")
        assert dm.array.flags["C_CONTIGUOUS"]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((12, 16)), 12, 16, 4, 4)  # 3x4 grid not square
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((12, 12)), 12, 12, 4, 4)  # 3x3 not pow2

    def test_dense_view_quadrants(self, rng):
        dm = DenseMatrix.zeros(2, 4, 4)
        dm.array[...] = rng.standard_normal((16, 16))
        v = dm.root_view()
        q = v.quadrant(1, 0)
        np.testing.assert_array_equal(q.array, dm.array[8:, :8])
        assert q.d == 1
        assert not q.is_leaf
        leaf = q.quadrant(0, 1)
        assert leaf.is_leaf
        np.testing.assert_array_equal(leaf.leaf_array(), dm.array[8:12, 4:8])

    def test_dense_view_strided_not_contiguous(self):
        dm = DenseMatrix.zeros(2, 4, 4)
        assert not dm.root_view().quadrant(0, 1).is_contiguous

    def test_alloc_like_fortran(self):
        dm = DenseMatrix.zeros(1, 4, 4)
        t = dm.root_view().quadrant(0, 0).alloc_like()
        assert t.array.flags["F_CONTIGUOUS"]
        assert t.rows == 4 and t.cols == 4

    def test_to_array_copies(self):
        dm = DenseMatrix.zeros(1, 2, 2)
        v = dm.root_view()
        arr = v.to_array()
        arr[0, 0] = 5
        assert dm.array[0, 0] == 0
