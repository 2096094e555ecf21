"""E1 / Figure 1: algorithmic locality-of-reference maps.

Regenerates the footprint statistics of the paper's dot diagrams and
times the set-recursion that produces them.
"""

import numpy as np

from benchmarks.conftest import register_table
from repro.algorithms.locality import footprint_counts
from repro.analysis.experiments import fig1_locality
from repro.analysis.figures import FIGURES


def test_fig1_footprints(benchmark):
    rows = benchmark(fig1_locality, 8)
    register_table(
        "Figure 1: footprints per C element (8x8)", FIGURES["fig1"].table(rows)
    )
    by = {(r["algorithm"], r["input"]): r for r in rows}
    # Paper-shape assertions.
    assert by[("standard", "A")]["max"] == 8
    assert by[("strassen", "A")]["diag_mean"] > by[("strassen", "A")]["mean"]
    assert by[("winograd", "A")]["argmax"] == (0, 7)


def test_fig1_strassen_16x16(benchmark):
    counts = benchmark(footprint_counts, "strassen", 16)
    a = counts["A"]
    assert int(np.diag(a).mean()) > a.mean()
