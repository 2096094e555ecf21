"""E2 / Figure 2 + addressing-overhead microbenchmarks.

Regenerates the layout gallery's dilation statistics and times the S
function of every layout — the paper's question of whether the more
complex curves (Gray, Hilbert) can be addressed cheaply enough.
"""

import numpy as np
import pytest

from benchmarks.conftest import register_table
from repro.analysis.experiments import fig2_layouts
from repro.analysis.figures import FIGURES
from repro.layouts.registry import PAPER_LAYOUTS, get_layout

ORDER = 9  # 512 x 512 tile positions per call
_SIDE = 1 << ORDER
_II, _JJ = np.meshgrid(
    np.arange(_SIDE, dtype=np.uint64), np.arange(_SIDE, dtype=np.uint64),
    indexing="ij",
)


@pytest.mark.parametrize("name", PAPER_LAYOUTS)
def test_s_function_throughput(benchmark, name):
    lay = get_layout(name)
    out = benchmark(lay.s, _II, _JJ, ORDER)
    assert out.shape == _II.shape


@pytest.mark.parametrize("name", ["LG", "LH"])
def test_s_inverse_throughput(benchmark, name):
    lay = get_layout(name)
    s = np.arange(_SIDE * _SIDE, dtype=np.uint64)
    i, j = benchmark(lay.s_inv, s, ORDER)
    assert i.shape == s.shape


def test_fig2_dilation_table(benchmark):
    rows = benchmark(fig2_layouts, 4)
    register_table(
        "Figure 2: layout dilation statistics (16x16 grid)",
        FIGURES["fig2"].table(rows),
    )
    by = {r["layout"]: r for r in rows}
    # Jumps get less pronounced as orientations increase (Section 3.4).
    assert by["LH"]["max"] <= by["LG"]["max"] <= by["LZ"]["max"]
