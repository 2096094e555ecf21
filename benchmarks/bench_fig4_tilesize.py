"""E3 / Figure 4: effect of the recursive-layout depth (leaf tile size).

Paper scale: n = 1024 with t in {1..512} and n = 1536 with t in
{3..768}, one processor.  Here n = 256: wall-clock per tile size plus
the simulated memory cost, showing the same U shape — steep penalty for
near-element-level recursion (Frens & Wise), a basin, then cache
overflow — and E8's slowdown factor against the native BLAS.
"""

import numpy as np
import pytest

from benchmarks.conftest import register_table
from repro.algorithms.dgemm import dgemm
from repro.analysis.experiments import fig4_tile_size_sweep, slowdown_vs_native
from repro.analysis.figures import FIGURES
from repro.analysis.report import ascii_plot, format_table

N = 256
TILES = [2, 4, 8, 16, 32, 64, 128, 256]

_rng = np.random.default_rng(4)
_A = _rng.standard_normal((N, N))
_B = _rng.standard_normal((N, N))


@pytest.mark.parametrize("tile", [4, 16, 64, 256])
def test_multiply_at_tile(benchmark, tile):
    r = benchmark(dgemm, _A, _B, tile=tile)
    np.testing.assert_allclose(r.c, _A @ _B, atol=1e-9)


def test_fig4_sweep_table(benchmark):
    rows = benchmark.pedantic(
        fig4_tile_size_sweep,
        kwargs=dict(n=N, tiles=TILES, repeats=1, include_memsim=True),
        rounds=1,
        iterations=1,
    )
    table = FIGURES["fig4"].table(rows)
    plot = ascii_plot(
        {"seconds": [r["seconds"] for r in rows]},
        x=TILES,
        title="wall-clock vs tile size",
    )
    register_table(f"Figure 4: tile-size sweep (n={N}, standard/LZ)", table + "\n" + plot)
    t = {r["tile"]: r["seconds"] for r in rows}
    # The paper's left side: near-element-level recursion is far slower
    # than the basin (Frens & Wise's mistake).
    assert t[2] > 3 * min(t.values())
    # The right side (cache overflow past the basin) shows in the
    # simulated memory cost: the best simulated tile is interior.
    sim = {r["tile"]: r["sim_cycles_per_flop"] for r in rows}
    best = min(sim, key=sim.get)
    assert best not in (TILES[0], TILES[-1])
    assert sim[TILES[-1]] > 1.5 * sim[best]


def test_e8_slowdown_vs_native(benchmark):
    out = benchmark.pedantic(
        slowdown_vs_native,
        kwargs=dict(n=N, tile=32, repeats=3),
        rounds=1,
        iterations=1,
    )
    register_table(
        "E8: slowdown vs native BLAS (paper: 1.88x at n=1024/t=16 on UltraSPARC)",
        format_table(
            ["n", "tile", "ours (s)", "native (s)", "slowdown"],
            [[out["n"], out["tile"], out["ours_seconds"],
              out["native_seconds"], out["slowdown"]]],
        ),
    )
    assert out["slowdown"] > 1.0
