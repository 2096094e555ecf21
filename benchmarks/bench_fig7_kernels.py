"""E6 / Figure 7: overhead of less-optimized leaf kernels.

The paper measured the cost of losing the native BLAS (factor 1.2-1.4)
and of a worse compiler (factor 1.5-1.9).  The Python analog ranks the
BLAS-backed leaf against the vectorized rank-1-update leaf and the
pure-Python unrolled leaf; the monotone tier ordering is the reproduced
shape (absolute factors are interpreter-scale).
"""

import numpy as np
import pytest

from benchmarks.conftest import register_table
from repro.analysis.experiments import fig7_kernel_tiers
from repro.analysis.figures import FIGURES
from repro.kernels.leaf import KERNELS

_rng = np.random.default_rng(7)
_A = np.asfortranarray(_rng.standard_normal((32, 32)))
_B = np.asfortranarray(_rng.standard_normal((32, 32)))


@pytest.mark.parametrize("kernel", ["blas", "sixloop", "unrolled"])
def test_leaf_kernel(benchmark, kernel):
    c = np.zeros((32, 32), order="F")
    benchmark(KERNELS[kernel], c, _A, _B)


def test_fig7_tier_table(benchmark):
    rows = benchmark.pedantic(
        fig7_kernel_tiers,
        kwargs=dict(n=96, tile=16, repeats=1),
        rounds=1,
        iterations=1,
    )
    register_table(
        "Figure 7: leaf-kernel tier overheads (paper: 1.2-1.4x BLAS loss, "
        "1.5-1.9x compiler loss)",
        FIGURES["fig7"].table(rows),
    )
    by = {r["kernel"]: r["factor_vs_blas"] for r in rows}
    assert 1.0 == by["blas"] < by["sixloop"] < by["unrolled"]
