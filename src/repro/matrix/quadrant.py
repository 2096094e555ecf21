"""Streaming quadrant operations with orientation correction (Section 4).

The pre- and post-additions of the three algorithms stream through whole
quadrants.  Recursive layouts keep quadrants contiguous, so for the
single-orientation layouts an addition is one vectorized pass over two
contiguous buffers.  For Gray-Morton, quadrants of opposite orientation
differ only in the gluing order of their two halves, so the paper runs
the addition in **two half-steps** — implemented here as two contiguous
block operations.  For Hilbert there is no such pattern and the paper
keeps **global mapping arrays** per orientation pair; here those arrays
(:func:`repro.layouts.base.orientation_permutation`) drive a tile-
granularity gather.

Every function also feeds the instrumentation counters in
:mod:`repro.kernels.instrument` so experiments can account for data
movement.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import instrument
from repro.layouts.base import orientation_permutation
from repro.layouts.graymorton import GrayMorton
from repro.matrix.tiledmatrix import DenseView, MatrixView, QuadView

__all__ = [
    "add_views",
    "sub_views",
    "iadd_views",
    "copy_view",
    "scale_view",
    "zero_view",
    "transpose_view",
    "views_compatible",
]


def views_compatible(*views: MatrixView) -> bool:
    """True when all views share geometry (shape, tile, and storage family).

    One comparison of the views' precomputed ``geometry`` keys: a
    QuadView's is its region's :class:`~repro.layouts.tiled.TiledLayout`
    (curve, grid order, tile shape), a DenseView's the tuple
    ``(rows, cols, t_r, t_c)``, and keys of the two families never
    compare equal.  Views of one multiply share key objects, so the
    identity test settles most calls.
    """
    key = views[0].geometry
    for v in views[1:]:
        if v.geometry is not key and v.geometry != key:
            return False
    return True


def _require_compatible(*views: MatrixView) -> None:
    if not views_compatible(*views):
        raise ValueError(
            "incompatible views: "
            + ", ".join(f"{v.rows}x{v.cols}/{type(v).__name__}" for v in views)
        )


def _aligned_tiles(v: QuadView, dst_orientation: int) -> np.ndarray:
    """Tiles of ``v`` reordered to ``dst_orientation`` (gather; maybe a view)."""
    tiles = v.tiles()
    if v.orientation == dst_orientation:
        return tiles
    perm = orientation_permutation(v.curve, v.d, v.orientation, dst_orientation)
    return tiles[perm]


def _gray_halves(tiles: np.ndarray, flip: bool) -> tuple[np.ndarray, np.ndarray]:
    """The two half-sequences of a Gray quadrant, in target gluing order."""
    half = tiles.shape[0] // 2
    if flip:
        return tiles[half:], tiles[:half]
    return tiles[:half], tiles[half:]


def add_views(x: MatrixView, y: MatrixView, out: MatrixView, subtract: bool = False):
    """``out = x + y`` (or ``x - y``), orientation-corrected.

    Returns ``out`` for chaining.
    """
    _require_compatible(x, y, out)
    op = np.subtract if subtract else np.add
    instrument.count_adds(x.rows * x.cols)
    if isinstance(x, DenseView):
        op(x.array, y.array, out=out.array)  # type: ignore[union-attr]
        return out
    assert isinstance(y, QuadView) and isinstance(out, QuadView)
    if x.orientation == y.orientation == out.orientation:
        # Single streaming pass over three contiguous buffers.
        op(x.buffer(), y.buffer(), out=out.buffer())
        return out
    if isinstance(x.curve, GrayMorton) and x.d > 0:
        # Two half-steps (the paper's Gray-Morton symmetry trick).  Each
        # operand whose orientation differs from out's contributes its
        # halves in swapped order; every half-step is contiguous.
        ox1, ox2 = _gray_halves(x.tiles(), x.orientation != out.orientation)
        oy1, oy2 = _gray_halves(y.tiles(), y.orientation != out.orientation)
        to = out.tiles()
        half = to.shape[0] // 2
        op(ox1, oy1, out=to[:half])
        op(ox2, oy2, out=to[half:])
        return out
    # General case (Hilbert): tile-granularity gathers via mapping arrays.
    op(
        _aligned_tiles(x, out.orientation),
        _aligned_tiles(y, out.orientation),
        out=out.tiles(),
    )
    return out


def sub_views(x: MatrixView, y: MatrixView, out: MatrixView):
    """``out = x - y``, orientation-corrected."""
    return add_views(x, y, out, subtract=True)


def iadd_views(out: MatrixView, x: MatrixView, subtract: bool = False):
    """``out += x`` (or ``out -= x``), orientation-corrected."""
    _require_compatible(out, x)
    op = np.subtract if subtract else np.add
    instrument.count_adds(x.rows * x.cols)
    if isinstance(out, DenseView):
        op(out.array, x.array, out=out.array)  # type: ignore[union-attr]
        return out
    assert isinstance(x, QuadView)
    if out.orientation == x.orientation:
        op(out.buffer(), x.buffer(), out=out.buffer())
        return out
    if isinstance(out.curve, GrayMorton) and out.d > 0:
        x1, x2 = _gray_halves(x.tiles(), True)
        to = out.tiles()
        half = to.shape[0] // 2
        op(to[:half], x1, out=to[:half])
        op(to[half:], x2, out=to[half:])
        return out
    to = out.tiles()
    op(to, _aligned_tiles(x, out.orientation), out=to)
    return out


def copy_view(src: MatrixView, out: MatrixView):
    """``out = src``, orientation-corrected."""
    _require_compatible(src, out)
    instrument.count_copies(src.rows * src.cols)
    if isinstance(src, DenseView):
        out.array[...] = src.array  # type: ignore[union-attr]
        return out
    assert isinstance(out, QuadView)
    if src.orientation == out.orientation:
        out.buffer()[...] = src.buffer()
        return out
    if isinstance(src.curve, GrayMorton) and src.d > 0:
        s1, s2 = _gray_halves(src.tiles(), src.orientation != out.orientation)
        to = out.tiles()
        half = to.shape[0] // 2
        to[:half] = s1
        to[half:] = s2
        return out
    out.tiles()[...] = _aligned_tiles(src, out.orientation)
    return out


def scale_view(v: MatrixView, alpha: float):
    """``v *= alpha`` in place (orientation-independent)."""
    instrument.count_adds(v.rows * v.cols)
    if isinstance(v, DenseView):
        np.multiply(v.array, alpha, out=v.array)
    else:
        np.multiply(v.buffer(), alpha, out=v.buffer())
    return v


def zero_view(v: MatrixView):
    """``v[...] = 0`` in place."""
    if isinstance(v, DenseView):
        v.array[...] = 0.0
    else:
        v.buffer()[...] = 0.0
    return v


def transpose_view(v: MatrixView) -> MatrixView:
    """Materialize ``v^T`` as a fresh root-oriented temporary.

    Square tiles only (the use case: the transposed quadrant operands of
    recursive Cholesky/TRSM).  For recursive views this is one tile
    gather — destination position ``S_0(ti, tj)`` takes the source tile
    at ``S_sigma(tj, ti)`` — plus a vectorized per-tile axis swap; no
    per-element addressing.
    """
    if isinstance(v, DenseView):
        if v.rows != v.cols or v.t_r != v.t_c:
            raise ValueError("transpose_view requires square views and tiles")
        out = v.alloc_like()
        out.array[...] = v.array.T
        instrument.count_copies(v.rows * v.cols)
        return out
    assert isinstance(v, QuadView)
    if v.t_r != v.t_c:
        raise ValueError("transpose_view requires square tiles")
    out = v.alloc_like()
    lay, d = v.curve, v.d
    side = 1 << d
    ti, tj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    src_pos = lay.s_fsm(tj.ravel(), ti.ravel(), d, v.orientation).astype(np.int64)
    dst_pos = lay.s_fsm(ti.ravel(), tj.ravel(), d, 0).astype(np.int64)
    perm = np.empty(v.n_tiles, dtype=np.int64)
    perm[dst_pos] = src_pos
    t = v.t_r
    tiles = v.tiles()[perm].reshape(v.n_tiles, t, t)
    out.tiles()[...] = tiles.transpose(0, 2, 1).reshape(v.n_tiles, t * t)
    instrument.count_copies(v.rows * v.cols)
    return out
