"""Layout-function framework.

The paper (Section 3) defines a family of layout functions for a
``2^d x 2^d`` grid of tiles via a space-filling-curve position function
``S(i, j)``.  Every recursive layout in the family is *self-similar*: the
four quadrants of the grid occupy four contiguous, equal-length runs of
the curve, and each quadrant is itself laid out by the same family member
in some *orientation*.

That observation lets us describe each curve completely by a small finite
state machine over orientations:

* ``rank_table[o, qi, qj]``  — which quarter of the curve (0..3) quadrant
  ``(qi, qj)`` occupies when the enclosing square has orientation ``o``
  (``qi`` is the row-half bit, ``qj`` the column-half bit);
* ``child_table[o, qi, qj]`` — the orientation of that quadrant.

The paper's layouts instantiate this with 1 orientation (U-, X-,
Z-Morton), 2 orientations (Gray-Morton) or 4 orientations (Hilbert).
The FSM is what the algorithms in :mod:`repro.algorithms` walk at run
time — ``S`` is never evaluated per element on the hot path, which is the
paper's "integration of address computation into control structure".

This module provides the abstract base plus generic FSM-driven
implementations of ``s`` / ``s_inv`` / ``tile_order`` that work for any
member; concrete subclasses may override ``s``/``s_inv`` with closed-form
bit-manipulation versions (and the test suite checks the two agree).
"""

from __future__ import annotations

import abc
import functools

import numpy as np

__all__ = ["Layout", "RecursiveLayout", "orientation_permutation"]


class Layout(abc.ABC):
    """A rule for ordering the tiles of a square ``2^d x 2^d`` tile grid.

    ``s(i, j, order)`` maps tile coordinates to positions along the
    ordering; ``s_inv`` is its inverse.  Subclasses are stateless and
    hashable, so instances can key caches.
    """

    #: Short name used by the registry ("LZ", "LH", ...).
    name: str = "?"
    #: Number of distinct orientations (1 for canonical/Morton, 2 Gray, 4 Hilbert).
    n_orientations: int = 1
    #: True for the curve-based (recursive) members of the family.
    is_recursive: bool = False

    @abc.abstractmethod
    def s(self, i, j, order: int) -> np.ndarray:
        """Position of tile ``(i, j)`` along the ordering of a ``2^order`` grid."""

    @abc.abstractmethod
    def s_inv(self, s, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`s`: position -> ``(i, j)`` tile coordinates."""

    def s_scalar(self, i: int, j: int, order: int) -> int:
        """Scalar convenience wrapper over :meth:`s`."""
        return int(self.s(np.asarray([i]), np.asarray([j]), order)[0])

    def s_inv_scalar(self, s: int, order: int) -> tuple[int, int]:
        """Scalar convenience wrapper over :meth:`s_inv`."""
        i, j = self.s_inv(np.asarray([s]), order)
        return int(i[0]), int(j[0])

    def tile_order(self, order: int, orientation: int = 0) -> np.ndarray:
        """Grid of positions: ``out[i, j]`` is the rank of tile ``(i, j)``.

        ``orientation`` selects the curve variant; 0 is the root
        orientation (the one :meth:`s` computes).
        """
        if orientation != 0:
            raise ValueError(f"{self.name} has a single orientation")
        side = 1 << order
        ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        return self.s(ii, jj, order).astype(np.int64)

    def sequence(self, order: int, orientation: int = 0) -> np.ndarray:
        """(4^order, 2) array of (i, j) tile coordinates in curve order."""
        grid = self.tile_order(order, orientation)
        side = 1 << order
        out = np.empty((side * side, 2), dtype=np.int64)
        flat = grid.ravel()
        out[flat, 0] = np.repeat(np.arange(side), side)
        out[flat, 1] = np.tile(np.arange(side), side)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"

    def __hash__(self) -> int:
        return hash(type(self))

    def __eq__(self, other) -> bool:
        return type(self) is type(other)


class RecursiveLayout(Layout):
    """Curve-based layout defined by a quadrant FSM (see module docstring).

    Subclasses must set :attr:`rank_table` and :attr:`child_table`
    (shape ``[n_orientations, 2, 2]``, indexed by row-half bit then
    column-half bit).  Generic vectorized ``s`` / ``s_inv`` drivers are
    derived from the tables; subclasses with closed-form bit formulas
    override them for speed and the FSM versions remain available as
    ``s_fsm`` / ``s_inv_fsm`` for cross-validation.
    """

    is_recursive = True
    rank_table: np.ndarray
    child_table: np.ndarray

    def __init__(self) -> None:
        rt, ct = self.rank_table, self.child_table
        if rt.shape != (self.n_orientations, 2, 2):
            raise ValueError(f"{self.name}: bad rank_table shape {rt.shape}")
        if ct.shape != (self.n_orientations, 2, 2):
            raise ValueError(f"{self.name}: bad child_table shape {ct.shape}")
        for o in range(self.n_orientations):
            if sorted(rt[o].ravel().tolist()) != [0, 1, 2, 3]:
                raise ValueError(f"{self.name}: orientation {o} ranks not a permutation")
        # Inverse tables: orientation, rank -> (qi, qj).
        inv = np.zeros((self.n_orientations, 4, 2), dtype=np.int64)
        inv_child = np.zeros((self.n_orientations, 4), dtype=np.int64)
        for o in range(self.n_orientations):
            for qi in (0, 1):
                for qj in (0, 1):
                    r = int(rt[o, qi, qj])
                    inv[o, r] = (qi, qj)
                    inv_child[o, r] = ct[o, qi, qj]
        self.inv_table = inv
        self.inv_child_table = inv_child

    # -- FSM drivers -----------------------------------------------------
    def s_fsm(self, i, j, order: int, orientation: int = 0) -> np.ndarray:
        """Generic FSM evaluation of S for any starting orientation."""
        i = np.asarray(i, dtype=np.uint64)
        j = np.asarray(j, dtype=np.uint64)
        i, j = np.broadcast_arrays(i, j)
        s = np.zeros(i.shape, dtype=np.uint64)
        state = np.full(i.shape, orientation, dtype=np.int64)
        rank = self.rank_table.reshape(self.n_orientations, 4)
        child = self.child_table.reshape(self.n_orientations, 4)
        for k in range(order - 1, -1, -1):
            qi = ((i >> np.uint64(k)) & np.uint64(1)).astype(np.int64)
            qj = ((j >> np.uint64(k)) & np.uint64(1)).astype(np.int64)
            cell = 2 * qi + qj
            s = (s << np.uint64(2)) | rank[state, cell].astype(np.uint64)
            state = child[state, cell]
        return s

    def s_inv_fsm(self, s, order: int, orientation: int = 0):
        """Generic FSM inversion of S for any starting orientation."""
        s = np.asarray(s, dtype=np.uint64)
        i = np.zeros(s.shape, dtype=np.uint64)
        j = np.zeros(s.shape, dtype=np.uint64)
        state = np.full(s.shape, orientation, dtype=np.int64)
        for k in range(order - 1, -1, -1):
            d = ((s >> np.uint64(2 * k)) & np.uint64(3)).astype(np.int64)
            i = (i << np.uint64(1)) | self.inv_table[state, d, 0].astype(np.uint64)
            j = (j << np.uint64(1)) | self.inv_table[state, d, 1].astype(np.uint64)
            state = self.inv_child_table[state, d]
        return i, j

    # -- Layout interface defaults ---------------------------------------
    def s(self, i, j, order: int) -> np.ndarray:
        return self.s_fsm(i, j, order, 0)

    def s_inv(self, s, order: int):
        return self.s_inv_fsm(s, order, 0)

    def tile_order(self, order: int, orientation: int = 0) -> np.ndarray:
        if not (0 <= orientation < self.n_orientations):
            raise ValueError(
                f"{self.name}: orientation {orientation} out of range "
                f"[0, {self.n_orientations})"
            )
        side = 1 << order
        ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        return self.s_fsm(ii, jj, order, orientation).astype(np.int64)

    # -- Quadrant navigation (used by the recursive algorithms) -----------
    def quadrant_rank(self, orientation: int, qi: int, qj: int) -> int:
        """Which quarter of the curve quadrant (qi, qj) occupies."""
        return int(self.rank_table[orientation, qi, qj])

    def quadrant_orientation(self, orientation: int, qi: int, qj: int) -> int:
        """Orientation of quadrant (qi, qj) inside a square of ``orientation``."""
        return int(self.child_table[orientation, qi, qj])

    @functools.cached_property
    def quadrant_steps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``[orientation][2 * qi + qj]`` -> ``(rank, child orientation)``.

        Both FSM tables as plain ints, the form the executed views walk
        once per recursion node; built on first use, not at import.
        """
        return tuple(
            tuple(
                (self.quadrant_rank(o, qi, qj), self.quadrant_orientation(o, qi, qj))
                for qi in (0, 1)
                for qj in (0, 1)
            )
            for o in range(self.n_orientations)
        )


@functools.lru_cache(maxsize=None)
def orientation_permutation(
    layout: RecursiveLayout, order: int, src: int, dst: int
) -> np.ndarray:
    """Tile permutation aligning two orientations of the same layout.

    Returns ``perm`` such that for any logical tile grid ``G``:
    position ``p`` of the *dst*-oriented storage holds the tile found at
    position ``perm[p]`` of the *src*-oriented storage.  This is the
    paper's "global mapping array" used to run pre-/post-additions between
    Hilbert (and Gray) quadrants of unequal orientation (Section 4).
    """
    if src == dst:
        return np.arange(1 << (2 * order), dtype=np.int64)
    src_grid = layout.tile_order(order, src).ravel()
    dst_grid = layout.tile_order(order, dst).ravel()
    perm = np.empty(1 << (2 * order), dtype=np.int64)
    perm[dst_grid] = src_grid
    return perm
