"""dgemm paths not covered by the core tests: custom kernels, runtimes,
temps mode, canonical C-order tracing, partition cost preferences."""

import numpy as np

from repro.algorithms.dgemm import dgemm
from repro.matrix.tile import TileRange

TR = TileRange(8, 16)


class TestKernelPlumbing:
    def test_custom_kernel_callable(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        calls = []

        def spy_kernel(c, x, y, accumulate=True):
            calls.append(c.shape)
            if accumulate:
                c += x @ y
            else:
                np.matmul(x, y, out=c)

        r = dgemm(a, b, kernel=spy_kernel, trange=TR)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-10)
        assert calls and all(s == calls[0] for s in calls)

    def test_sixloop_kernel_through_dgemm(self, rng):
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        r = dgemm(a, b, kernel="sixloop", trange=TR)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-10)

    def test_temps_mode_through_dgemm(self, rng):
        a = rng.standard_normal((40, 40))
        b = rng.standard_normal((40, 40))
        r = dgemm(a, b, mode="temps", trange=TR)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-10)

    def test_temps_mode_with_beta(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        c = rng.standard_normal((32, 32))
        r = dgemm(a, b, c, beta=1.5, mode="temps", trange=TR)
        np.testing.assert_allclose(r.c, a @ b + 1.5 * c, atol=1e-10)


class TestRuntimePlumbing:
    def test_trace_runtime_collects_whole_call(self, rng):
        from repro.runtime import TraceRuntime, work

        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        rt = TraceRuntime()
        dgemm(a, b, algorithm="winograd", rt=rt, trange=TR)
        assert work(rt.root) > 0
        assert rt.root.n_leaves > 7

    def test_thread_runtime_with_partition(self, rng):
        from repro.runtime import ThreadRuntime

        a = rng.standard_normal((200, 16))
        b = rng.standard_normal((16, 16))
        with ThreadRuntime(n_workers=2) as rt:
            r = dgemm(a, b, rt=rt, trange=TR)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-10)

    def test_thread_runtime_races_on_lazy_tile_stacks(self, rng):
        # Parallel tasks build each operand's tile stack on first use; a
        # lost race may only rebuild the same view, never misplace a tile.
        import sys

        from repro.runtime import ThreadRuntime

        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for layout in ("LZ", "LH"):
                for _ in range(3):
                    with ThreadRuntime(n_workers=8) as rt:
                        r = dgemm(a, b, tile=8, algorithm="strassen",
                                  layout=layout, rt=rt)
                    np.testing.assert_allclose(r.c, a @ b, atol=1e-10)
        finally:
            sys.setswitchinterval(interval)


class TestPartitionQuality:
    def test_extreme_lean_prefers_split_over_pad(self, rng):
        # A 4 x 512 op(A): a square tile grid could "fit" it only with
        # ~64x padding; the cost-based planner must split n instead.
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 512))
        r = dgemm(a, b, trange=TileRange(8, 16))
        np.testing.assert_allclose(r.c, a @ b, atol=1e-10)
        assert r.partition.p_n > 1

    def test_tiny_matrices(self, rng):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 5))
        r = dgemm(a, b)
        np.testing.assert_allclose(r.c, a @ b, atol=1e-12)

    def test_one_by_one(self):
        r = dgemm(np.array([[3.0]]), np.array([[4.0]]))
        assert r.c[0, 0] == 12.0

    def test_vector_like(self, rng):
        a = rng.standard_normal((1, 64))
        b = rng.standard_normal((64, 1))
        r = dgemm(a, b, trange=TileRange(8, 16))
        np.testing.assert_allclose(r.c, a @ b, atol=1e-10)


class TestCanonicalCOrderTrace:
    def test_row_major_dense_region(self, rng):
        # The trace generator must handle C-order canonical storage too.
        from repro.matrix.tiledmatrix import DenseMatrix
        from repro.memsim.trace import view_region

        dm = DenseMatrix.zeros(1, 4, 4, order="C")
        q = dm.root_view().quadrant(0, 1)
        r = view_region(q)
        # C-order: rows are contiguous; the region transposes roles.
        assert r.rows == 4 and r.cols == 4
        assert r.col_stride == 8
