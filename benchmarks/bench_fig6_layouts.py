"""E5 / Figure 6: comparative performance of the six layouts.

Paper scale: n = 1000 and 1200, three algorithms, six layouts, 1-4
processors.  Here: wall-clock at n = 192 for the serial elision, with
2- and 4-processor times derived from the work-stealing scheduler
simulation over the recorded task DAG (single-core host).  Expected
shape: the five recursive layouts cluster; all scale near-linearly;
Strassen/Winograd are nearly indistinguishable from each other.
"""

import numpy as np
import pytest

from benchmarks.conftest import register_table
from repro.algorithms.dgemm import dgemm
from repro.analysis.experiments import fig6_layout_comparison, fig6_simulated
from repro.analysis.figures import FIGURES
from repro.layouts.registry import PAPER_LAYOUTS
from repro.matrix.tile import TileRange

N = 192
TR = TileRange(16, 32)

_rng = np.random.default_rng(6)
_A = _rng.standard_normal((N, N))
_B = _rng.standard_normal((N, N))


@pytest.mark.parametrize("layout", PAPER_LAYOUTS)
def test_standard_by_layout(benchmark, layout):
    r = benchmark(dgemm, _A, _B, algorithm="standard", layout=layout, trange=TR)
    np.testing.assert_allclose(r.c, _A @ _B, atol=1e-9)


@pytest.mark.parametrize("algorithm", ["standard", "strassen", "winograd"])
def test_algorithms_over_lz(benchmark, algorithm):
    r = benchmark(dgemm, _A, _B, algorithm=algorithm, layout="LZ", trange=TR)
    np.testing.assert_allclose(r.c, _A @ _B, atol=1e-8)


def test_fig6_full_cross_product(benchmark):
    rows = benchmark.pedantic(
        fig6_layout_comparison,
        kwargs=dict(n=N, procs=(1, 2, 4), trange=TR, repeats=3),
        rounds=1,
        iterations=1,
    )
    register_table(
        f"Figure 6: algorithms x layouts x processors (n={N}; p>1 simulated)",
        FIGURES["fig6"].table(rows),
    )
    by = {(r["algorithm"], r["layout"]): r for r in rows}
    # Recursive layouts cluster (paper: "approximately the same").
    for algo in ("standard", "strassen", "winograd"):
        rec = [by[(algo, lay)]["p1_seconds"] for lay in ("LU", "LX", "LZ", "LG", "LH")]
        assert max(rec) < 2.5 * min(rec), algo
    # Near-linear simulated scaling to 4 processors.
    for key, r in by.items():
        assert r["p1_seconds"] / r["p4_seconds"] > 3.0, key
    # The two fast algorithms are nearly indistinguishable (paper Sec 5).
    s = by[("strassen", "LZ")]["p1_seconds"]
    w = by[("winograd", "LZ")]["p1_seconds"]
    assert 0.5 < s / w < 2.0


def test_fig6_simulated_memory_cost(benchmark):
    # The paper's headline Figure 6 finding lives in the memory system;
    # wall-clock at interpreter scale hides it, the trace simulator
    # exposes it.  n=250 pads to a 256 leading dimension, mirroring how
    # the paper's n=1000 pads to a power of two on its direct-mapped
    # caches.
    rows = benchmark.pedantic(
        fig6_simulated,
        kwargs=dict(n=250, tile=16),
        rounds=1,
        iterations=1,
    )
    register_table(
        "Figure 6 (simulated): memory cycles/flop, algorithms x layouts (n=250)",
        FIGURES["fig6sim"].table(rows),
    )
    by = {(r["algorithm"], r["layout"]): r["vs_LC"] for r in rows}
    rec = ("LU", "LX", "LZ", "LG", "LH")
    # Standard: dramatic win for recursive layouts (paper: 1.2-2.5x in
    # time; memory-only cycles amplify it).
    for lay in rec:
        assert by[("standard", lay)] < 0.6, lay
    # Fast algorithms: marginal effect (paper Section 5.1).
    for algo in ("strassen", "winograd"):
        for lay in rec:
            assert 0.7 < by[(algo, lay)] < 1.2, (algo, lay)
    # The five recursive layouts perform approximately the same.
    for algo in ("standard", "strassen", "winograd"):
        vals = [by[(algo, lay)] for lay in rec]
        assert max(vals) / min(vals) < 1.25, algo
