"""Wide/lean matrix handling (Figure 3 of the paper).

Tile sizes confined to ``[T_min, T_max]`` make directly-tileable matrices
*squat* (aspect ratio within ``alpha = T_max/T_min`` of square).  A wide
or lean matrix — or a product whose three dimensions are too dissimilar —
is first cut into squat blocks; the product is reconstructed from block
products ``C[i,j] = sum_l A[i,l] . B[l,j]``, all of which the paper
spawns in parallel.

:func:`plan_partition` chooses the block counts ``(p_m, p_k, p_n)`` —
the powers of two whose jointly tileable blocks have the least total
padded flop volume, ties going to the fewest blocks — and returns a
:class:`PartitionPlan` whose ``block_products`` enumerates the
sub-multiplications.  The search scores every feasible block count, so
its plans are memoized per ``(m, k, n, TileRange)``: a repeated shape
gets the same frozen plan object back.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

from repro.bits.util import ceil_div
from repro.matrix.tile import (
    InfeasibleTiling,
    MatmulTiling,
    TileRange,
    select_matmul_tiling,
)

__all__ = ["BlockProduct", "PartitionPlan", "plan_partition"]


def _split_points(dim: int, parts: int) -> list[tuple[int, int]]:
    """(start, stop) ranges cutting ``dim`` into ``parts`` near-equal blocks."""
    base = ceil_div(dim, parts)
    out = []
    start = 0
    while start < dim:
        stop = min(dim, start + base)
        out.append((start, stop))
        start = stop
    return out


@dataclasses.dataclass(frozen=True)
class BlockProduct:
    """One squat sub-multiplication ``C[rm, rn] += A[rm, rk] . B[rk, rn]``."""

    row_range: tuple[int, int]  # rows of C / A
    inner_range: tuple[int, int]  # cols of A / rows of B
    col_range: tuple[int, int]  # cols of C / B
    accumulate: bool  # True when a previous product wrote this C block

    @property
    def shape(self) -> tuple[int, int, int]:
        """(m, k, n) of this block product."""
        return (
            self.row_range[1] - self.row_range[0],
            self.inner_range[1] - self.inner_range[0],
            self.col_range[1] - self.col_range[0],
        )


@dataclasses.dataclass(frozen=True)
class PartitionPlan:
    """Decomposition of a product into squat block products."""

    m: int
    k: int
    n: int
    p_m: int
    p_k: int
    p_n: int
    tiling: MatmulTiling  # joint tiling used by every block product

    @property
    def is_trivial(self) -> bool:
        """True when no splitting was needed (already squat)."""
        return self.p_m == self.p_k == self.p_n == 1

    @property
    def n_products(self) -> int:
        """Total sub-multiplications."""
        return self.p_m * self.p_k * self.p_n

    def block_products(self) -> list[BlockProduct]:
        """All block products; those with the same (row, col) accumulate."""
        rows = _split_points(self.m, self.p_m)
        inners = _split_points(self.k, self.p_k)
        cols = _split_points(self.n, self.p_n)
        out = []
        for rm, rn in itertools.product(rows, cols):
            for idx, rk in enumerate(inners):
                out.append(BlockProduct(rm, rk, rn, accumulate=idx > 0))
        return out


#: Plans kept by :func:`plan_partition`'s memo.  A figure grid or a
#: benchmark round repeats a handful of shapes; the bound only caps a
#: long-lived process fed ever new shapes.
_PLAN_MEMO_SIZE = 256


def plan_partition(
    m: int, k: int, n: int, trange: TileRange | None = None
) -> PartitionPlan:
    """Choose block counts making every block jointly tileable.

    Tries every power-of-two count per axis (up to ``2**11``, never more
    blocks than the axis has elements) and keeps the feasible
    combination with the least total padded flop volume, block count
    times ``2 * pm * pk * pn`` of the block tiling's padded dims.  Ties
    go to the fewest blocks (candidates are visited in increasing total
    block count, then lexicographically).  Raises
    :class:`~repro.matrix.tile.InfeasibleTiling` only if even unit blocks
    fail, which cannot happen for dims >= 1 and t_min <= dim.

    Memoized per ``(m, k, n, trange)``, with ``None`` and ``TileRange()``
    sharing one entry: the returned plan is a frozen object shared by
    every caller asking for that shape.
    """
    return _search_partition(m, k, n, trange or TileRange())


@functools.lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _search_partition(m: int, k: int, n: int, trange: TileRange) -> PartitionPlan:
    """The memoized search of :func:`plan_partition`; ``__wrapped__``
    runs it uncached."""
    candidates = []
    for em, ek, en in itertools.product(range(12), repeat=3):
        candidates.append((1 << em, 1 << ek, 1 << en))
    candidates.sort(key=lambda pkn: (pkn[0] * pkn[1] * pkn[2], pkn))
    best: PartitionPlan | None = None
    best_cost: int | None = None
    last_err: Exception | None = None
    for p_m, p_k, p_n in candidates:
        if p_m > m or p_k > k or p_n > n:
            continue
        bm, bk, bn = ceil_div(m, p_m), ceil_div(k, p_k), ceil_div(n, p_n)
        try:
            tiling = select_matmul_tiling(bm, bk, bn, trange)
        except InfeasibleTiling as err:
            last_err = err
            continue
        # Total padded flop volume: extreme aspect ratios can be
        # "feasible" with a square tile grid only via massive padding,
        # in which case splitting (the paper's Figure 3) is far cheaper.
        pm, pk, pn = tiling.padded
        cost = (p_m * p_k * p_n) * 2 * pm * pk * pn
        if best is None or cost < best_cost:
            best = PartitionPlan(m, k, n, p_m, p_k, p_n, tiling)
            best_cost = cost
    if best is None:
        raise InfeasibleTiling(
            f"no partition of ({m}x{k})({k}x{n}) into squat blocks: {last_err}"
        )
    return best
