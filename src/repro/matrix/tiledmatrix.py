"""Matrix containers: recursive-layout storage and views over it.

Two storage families, sharing one *view* protocol that the recursive
algorithms consume:

* :class:`TiledMatrix` / :class:`QuadView` — the paper's recursive
  layout: a flat buffer of contiguous ``t_r x t_c`` column-major tiles
  ordered along a space-filling curve.  A ``QuadView`` is a square
  ``2^d x 2^d``-tile region that is **contiguous in the buffer**, plus
  its curve orientation; descending to a quadrant is two table lookups
  (the paper's "address computation embedded in the control structure").

* :class:`DenseMatrix` / :class:`DenseView` — the honest ``L_C``/``L_R``
  baseline: one column-major (or row-major) numpy array; views are
  strided sub-arrays with leading dimension equal to the *whole* padded
  matrix, which is precisely what causes the canonical layout's
  interference misses and false sharing in the paper's measurements.

Both view types expose: ``rows``/``cols`` (padded), ``is_leaf``,
``geometry``, ``quadrant(qi, qj)``, ``leaf_array()`` and ``alloc_like()``.
A recursion builds a view per quadrant of every node, so views are
``__slots__`` objects whose geometry is computed once, when they are made.
"""

from __future__ import annotations

import functools
from typing import Union

import numpy as np

from repro.layouts.base import RecursiveLayout
from repro.layouts.registry import get_recursive_layout
from repro.layouts.tiled import TiledLayout

__all__ = ["TiledMatrix", "QuadView", "DenseMatrix", "DenseView", "MatrixView"]

#: Distinct (curve, grid order, tile shape) families kept by
#: :func:`_depth_layouts`; one multiply touches one to three.
_LAYOUT_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_LAYOUT_MEMO_SIZE)
def _depth_layouts(layout: TiledLayout) -> tuple[TiledLayout, ...]:
    """``layout`` restricted to grid order ``0..layout.d``, one per order.

    Entry ``d`` is the geometry of every ``2^d x 2^d``-tile view of a
    matrix stored in ``layout``, and the layout of its temporaries.
    """
    curve, t_r, t_c = layout.curve, layout.t_r, layout.t_c
    return tuple(TiledLayout(curve, d, t_r, t_c) for d in range(layout.d)) + (layout,)


class TiledMatrix:
    """A padded matrix stored in a recursive layout (equation (3)).

    The logical matrix is ``m x n``; storage covers the padded
    ``(t_r << d) x (t_c << d)`` with explicit zeros in the pad (the
    paper's padding policy: compute blindly on the zeros).
    """

    __slots__ = ("layout", "buf", "m", "n", "_levels", "_tiles")

    def __init__(self, layout: TiledLayout, buf: np.ndarray, m: int, n: int):
        if buf.ndim != 1 or buf.shape[0] != layout.n_elements:
            raise ValueError(
                f"buffer length {buf.shape} does not match layout "
                f"({layout.n_elements} elements)"
            )
        if not (0 < m <= layout.rows and 0 < n <= layout.cols):
            raise ValueError(
                f"logical dims {m}x{n} incompatible with padded "
                f"{layout.rows}x{layout.cols}"
            )
        if not isinstance(layout.curve, RecursiveLayout):
            raise TypeError("TiledMatrix requires a recursive curve layout")
        self.layout = layout
        self.buf = buf
        self.m = m
        self.n = n
        # The layout of a 2^d x 2^d-tile view, per d; shared by every
        # matrix of this layout and handed on to its temporaries.
        self._levels = _depth_layouts(layout)
        self._tiles = None

    def __getstate__(self):
        # A copy or unpickled matrix rebuilds the tile stack over its own
        # buffer; a copied stack would no longer write through to it.
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_tiles"] = None
        return None, state

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(
        cls,
        curve,
        d: int,
        t_r: int,
        t_c: int,
        m: int | None = None,
        n: int | None = None,
        dtype=np.float64,
    ) -> "TiledMatrix":
        """Zero-filled matrix; logical dims default to the padded dims."""
        layout = TiledLayout(get_recursive_layout(curve), d, t_r, t_c)
        buf = np.zeros(layout.n_elements, dtype=dtype)
        return cls(layout, buf, m or layout.rows, n or layout.cols)

    @classmethod
    def _temporary(cls, view: "QuadView") -> "TiledMatrix":
        """Uninitialized matrix of ``view``'s geometry and dtype, built
        without re-validating what ``view``'s own matrix already passed."""
        tm = cls.__new__(cls)
        rows, cols = view.rows, view.cols
        tm.layout = view.geometry
        tm.buf = np.empty(rows * cols, dtype=view.matrix.buf.dtype)
        tm.m = rows
        tm.n = cols
        tm._levels = view.matrix._levels
        tm._tiles = None
        return tm

    @property
    def dtype(self):
        """Element dtype of the backing buffer."""
        return self.buf.dtype

    @property
    def padded_shape(self) -> tuple[int, int]:
        """Padded (rows, cols)."""
        return (self.layout.rows, self.layout.cols)

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (rows, cols)."""
        return (self.m, self.n)

    def root_view(self) -> "QuadView":
        """View covering the whole tile grid, root orientation."""
        return QuadView(self, 0, self.layout.d, 0)

    def tile_stack(self) -> np.ndarray:
        """``(n_tiles, t_r, t_c)`` view of the buffer, tiles in curve order.

        Entry ``s`` is tile ``s`` as a column-major 2-D array writing
        through to ``buf``; built on first use and kept.
        """
        tiles = self._tiles
        if tiles is None:
            lay = self.layout
            tiles = self.buf.reshape(lay.n_tiles, lay.t_c, lay.t_r).transpose(0, 2, 1)
            self._tiles = tiles
        return tiles

    def __getitem__(self, idx: tuple[int, int]):
        """Element access by logical (i, j) — for tests and debugging."""
        i, j = idx
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError(f"({i}, {j}) outside logical {self.m}x{self.n}")
        return self.buf[self.layout.address_scalar(i, j)]

    def __setitem__(self, idx: tuple[int, int], value) -> None:
        i, j = idx
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError(f"({i}, {j}) outside logical {self.m}x{self.n}")
        self.buf[self.layout.address_scalar(i, j)] = value


class QuadView:
    """A contiguous ``2^d x 2^d``-tile square region of a TiledMatrix.

    Its geometry is fixed when it is made: ``rows``/``cols`` (padded),
    ``n_tiles``, ``is_leaf``, and ``geometry``, the region's own
    :class:`TiledLayout` (grid order ``d``).  Equal geometries make two
    views addable, and a temporary of the view gets that layout.
    """

    __slots__ = (
        "matrix", "tile_off", "d", "orientation",
        "geometry", "rows", "cols", "n_tiles", "is_leaf",
    )

    def __init__(self, matrix: TiledMatrix, tile_off: int, d: int, orientation: int):
        geometry = matrix._levels[d]
        self.matrix = matrix
        self.tile_off = tile_off
        self.d = d
        self.orientation = orientation
        self.geometry = geometry
        self.rows = geometry.t_r << d
        self.cols = geometry.t_c << d
        self.n_tiles = 1 << (2 * d)
        self.is_leaf = d == 0

    def __repr__(self) -> str:
        return (
            f"QuadView(tile_off={self.tile_off}, d={self.d}, "
            f"orientation={self.orientation}, geometry={self.geometry})"
        )

    # -- geometry ----------------------------------------------------------
    @property
    def curve(self) -> RecursiveLayout:
        """The space-filling curve governing tile order."""
        return self.geometry.curve  # type: ignore[return-value]

    @property
    def t_r(self) -> int:
        """Tile row count."""
        return self.geometry.t_r

    @property
    def t_c(self) -> int:
        """Tile column count."""
        return self.geometry.t_c

    @property
    def is_contiguous(self) -> bool:
        """QuadViews are always buffer-contiguous (the layouts' key property)."""
        return True

    # -- storage access ------------------------------------------------------
    def buffer(self) -> np.ndarray:
        """The contiguous 1-D slice of the backing buffer for this region."""
        size = self.rows * self.cols
        start = self.tile_off * (size // self.n_tiles)
        return self.matrix.buf[start : start + size]

    def tiles(self) -> np.ndarray:
        """(n_tiles, tile_size) 2-D view, tiles in curve order."""
        return self.buffer().reshape(self.n_tiles, -1)

    def leaf_array(self) -> np.ndarray:
        """For a leaf view: the (t_r, t_c) column-major 2-D tile."""
        if self.d:
            raise ValueError(f"leaf_array on non-leaf view (d={self.d})")
        return self.matrix.tile_stack()[self.tile_off]

    # -- navigation -----------------------------------------------------------
    def quadrant(self, qi: int, qj: int) -> "QuadView":
        """Quadrant (row-half, col-half): one FSM table lookup."""
        d = self.d
        if d == 0:
            raise ValueError("cannot take a quadrant of a leaf tile")
        steps = self.geometry.curve.quadrant_steps[self.orientation]
        rank, child = steps[2 * qi + qj]
        quad_tiles = self.n_tiles >> 2
        return QuadView(self.matrix, self.tile_off + rank * quad_tiles, d - 1, child)

    def quadrants(self) -> tuple["QuadView", "QuadView", "QuadView", "QuadView"]:
        """(q11, q12, q21, q22) in the paper's numbering (row, col from 1)."""
        d = self.d
        if d == 0:
            raise ValueError("cannot take a quadrant of a leaf tile")
        (r11, o11), (r12, o12), (r21, o21), (r22, o22) = (
            self.geometry.curve.quadrant_steps[self.orientation]
        )
        m, off, quad_tiles = self.matrix, self.tile_off, self.n_tiles >> 2
        return (
            QuadView(m, off + r11 * quad_tiles, d - 1, o11),
            QuadView(m, off + r12 * quad_tiles, d - 1, o12),
            QuadView(m, off + r21 * quad_tiles, d - 1, o21),
            QuadView(m, off + r22 * quad_tiles, d - 1, o22),
        )

    # -- temporaries ------------------------------------------------------------
    def alloc_like(self) -> "QuadView":
        """Fresh temporary with this view's geometry (orientation 0).

        Uninitialized — the algorithms always *overwrite* temporaries
        (pre-additions stream into them, products run with beta=0
        semantics), which is what keeps the paper's 18/15 addition
        counts exact.
        """
        return TiledMatrix._temporary(self).root_view()

    # -- materialization (tests / verification) -----------------------------------
    def to_array(self) -> np.ndarray:
        """Materialize this region as a dense (rows, cols) array (copy)."""
        side = 1 << self.d
        t_r, t_c = self.t_r, self.t_c
        out = np.empty((self.rows, self.cols), dtype=self.matrix.dtype)
        tiles = self.matrix.tile_stack()[self.tile_off : self.tile_off + self.n_tiles]
        order = self.curve.tile_order(self.d, self.orientation)
        for ti in range(side):
            for tj in range(side):
                out[ti * t_r : (ti + 1) * t_r, tj * t_c : (tj + 1) * t_c] = tiles[
                    order[ti, tj]
                ]
        return out


class DenseMatrix:
    """Canonical-layout matrix: a padded column-/row-major numpy array."""

    __slots__ = ("array", "m", "n", "t_r", "t_c")

    def __init__(self, array: np.ndarray, m: int, n: int, t_r: int, t_c: int):
        pm, pn = array.shape
        if pm % t_r or pn % t_c:
            raise ValueError(f"padded {pm}x{pn} not divisible by tile {t_r}x{t_c}")
        side_r, side_c = pm // t_r, pn // t_c
        if side_r != side_c or side_r & (side_r - 1):
            raise ValueError(
                f"tile grid {side_r}x{side_c} must be square power-of-two"
            )
        self.array = array
        self.m = m
        self.n = n
        self.t_r = t_r
        self.t_c = t_c

    @classmethod
    def zeros(
        cls,
        d: int,
        t_r: int,
        t_c: int,
        m: int | None = None,
        n: int | None = None,
        dtype=np.float64,
        order: str = "F",
    ) -> "DenseMatrix":
        """Zero-filled canonical matrix; ``order`` 'F' is the paper's L_C."""
        pm, pn = t_r << d, t_c << d
        a = np.zeros((pm, pn), dtype=dtype, order=order)
        return cls(a, m or pm, n or pn, t_r, t_c)

    @property
    def dtype(self):
        """Element dtype."""
        return self.array.dtype

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (rows, cols)."""
        return (self.m, self.n)

    @property
    def padded_shape(self) -> tuple[int, int]:
        """Padded (rows, cols)."""
        return self.array.shape

    def root_view(self) -> "DenseView":
        """View covering the full padded array."""
        return DenseView(self.array, self.t_r, self.t_c)


class DenseView:
    """A (strided) rectangular region of a canonical-layout matrix.

    Like a QuadView, its geometry is fixed when it is made; ``geometry``
    is ``(rows, cols, t_r, t_c)``, and equal geometries make two views
    addable.
    """

    __slots__ = (
        "array", "t_r", "t_c", "orientation", "geometry", "rows", "cols", "is_leaf",
    )

    def __init__(self, array: np.ndarray, t_r: int, t_c: int, orientation: int = 0):
        rows, cols = array.shape
        self.array = array  # 2-D numpy view
        self.t_r = t_r
        self.t_c = t_c
        self.orientation = orientation  # canonical views have a single orientation
        self.geometry = (rows, cols, t_r, t_c)
        self.rows = rows
        self.cols = cols
        self.is_leaf = rows == t_r and cols == t_c

    def __repr__(self) -> str:
        return f"DenseView(geometry={self.geometry}, strides={self.array.strides})"

    @property
    def d(self) -> int:
        """Tile-grid order of this view."""
        side = self.rows // self.t_r
        return side.bit_length() - 1

    @property
    def is_contiguous(self) -> bool:
        """Strided canonical views are generally not contiguous."""
        return self.array.flags["F_CONTIGUOUS"] or self.array.flags["C_CONTIGUOUS"]

    def quadrant(self, qi: int, qj: int) -> "DenseView":
        """Quadrant as a strided sub-view (no data movement)."""
        hr, hc = self.rows // 2, self.cols // 2
        sub = self.array[qi * hr : (qi + 1) * hr, qj * hc : (qj + 1) * hc]
        return DenseView(sub, self.t_r, self.t_c)

    def quadrants(self):
        """(q11, q12, q21, q22) in the paper's numbering."""
        return (
            self.quadrant(0, 0),
            self.quadrant(0, 1),
            self.quadrant(1, 0),
            self.quadrant(1, 1),
        )

    def leaf_array(self) -> np.ndarray:
        """The tile as a 2-D (strided) array — no copy."""
        if not self.is_leaf:
            raise ValueError("leaf_array on non-leaf view")
        return self.array

    def alloc_like(self) -> "DenseView":
        """Fresh column-major temporary of this view's shape (uninitialized,
        always fully overwritten by its producer — see QuadView.alloc_like)."""
        return DenseView(
            np.empty((self.rows, self.cols), dtype=self.array.dtype, order="F"),
            self.t_r,
            self.t_c,
        )

    def to_array(self) -> np.ndarray:
        """Materialize as a dense array (copy)."""
        return np.array(self.array)


MatrixView = Union[QuadView, DenseView]
