"""E9: format-conversion cost accounting (Section 4 of the paper).

Frens & Wise assumed quad-tree order everywhere; the paper charges the
column-major -> recursive conversion honestly.  These benches time the
conversion itself (gather fast path vs. per-tile reference — our
ablation), and tabulate conversion as a fraction of end-to-end dgemm.
"""

import numpy as np
import pytest

from benchmarks.conftest import register_table
from repro.analysis.experiments import conversion_accounting
from repro.analysis.figures import FIGURES
from repro.matrix.convert import from_tiled, to_tiled
from repro.matrix.tile import Tiling

N = 512
_rng = np.random.default_rng(9)
_A = np.asfortranarray(_rng.standard_normal((N, N)))
_TILING = Tiling(5, 16, 16, N, N)


@pytest.mark.parametrize("curve", ["LZ", "LG", "LH"])
def test_to_tiled_gather(benchmark, curve):
    tm = benchmark(to_tiled, _A, curve, _TILING, method="gather")
    assert tm.m == N


@pytest.mark.parametrize("curve", ["LZ", "LH"])
def test_to_tiled_per_tile_reference(benchmark, curve):
    tm = benchmark(to_tiled, _A, curve, _TILING, method="tiles")
    assert tm.m == N


def test_from_tiled(benchmark):
    tm = to_tiled(_A, "LZ", _TILING)
    out = benchmark(from_tiled, tm)
    np.testing.assert_array_equal(out, _A)


def test_e9_conversion_fraction_table(benchmark):
    rows = benchmark.pedantic(
        conversion_accounting,
        kwargs=dict(n_values=(256, 512, 1024)),
        rounds=1,
        iterations=1,
    )
    register_table(
        "E9: conversion cost as a fraction of end-to-end dgemm (standard/LZ)",
        FIGURES["conversion"].table(rows),
    )
    # Conversion is real but bounded: a fixed number of O(n^2) passes
    # against O(n^3) compute.  (The *fraction* at these sizes hovers
    # around 15-25% and is noisy — numpy's BLAS efficiency and the
    # gather's cache behaviour both shift with n — so assert the bound,
    # not a monotone trend.)
    fracs = [r["conversion_fraction"] for r in rows]
    assert all(0 < f < 0.5 for f in fracs)
    assert all(r["conversions"] == 3 for r in rows)


def test_extension_cholesky(benchmark):
    """Extension: Gustavson-style recursive Cholesky on the same substrate."""
    import numpy as np

    from repro.algorithms.cholesky import cholesky
    from repro.matrix.tile import TileRange

    rng = np.random.default_rng(13)
    n = 256
    x = rng.standard_normal((n, n))
    a = x @ x.T + n * np.eye(n)
    L = benchmark(cholesky, a, "LZ", TileRange(16, 32))
    assert np.abs(L @ L.T - a).max() < 1e-7
