"""3C miss classification (Hill & Smith), referenced in the paper's
footnote 1: "In terms of the 3C model of cache misses, we are reasoning
about capacity misses at a high level, not about conflict misses."

For a given cache geometry, each miss of the real (set-associative or
direct-mapped) cache is classified by replaying the trace against a
fully-associative LRU cache of the same capacity and line size:

* **compulsory** — first touch of the line anywhere in the trace;
* **capacity**   — not compulsory, and the fully-associative cache of
  the same capacity also misses (the working set simply doesn't fit);
* **conflict**   — the real cache misses but the fully-associative one
  hits (set-index collisions; the canonical layouts' pathology).

Both the real cache and the fully-associative one are priced by the
capped stack-distance engine (:mod:`repro.memsim.engines`) — the same
code path the hierarchy and TLB models use, so one engine is validated
once against the scalar oracles and reused everywhere.

This directly verifies the paper's claim: the recursive layouts' wins
at pathological sizes are *conflict* eliminations, while their
remaining misses are compulsory + capacity, which tiling already
minimized.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.memsim.engines import lru_hit_mask, simulate_set_associative
from repro.memsim.machine import CacheGeometry

__all__ = ["MissBreakdown", "classify_misses"]


@dataclasses.dataclass(frozen=True)
class MissBreakdown:
    """3C decomposition of one cache's misses over one trace."""

    accesses: int
    compulsory: int
    capacity: int
    conflict: int

    @property
    def total(self) -> int:
        """All misses."""
        return self.compulsory + self.capacity + self.conflict

    @property
    def conflict_fraction(self) -> float:
        """Share of misses that a fully-associative cache would avoid."""
        return self.conflict / self.total if self.total else 0.0


def classify_misses(addresses: np.ndarray, geom: CacheGeometry) -> MissBreakdown:
    """3C decomposition of the misses of ``geom`` over a byte-address trace."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return MissBreakdown(0, 0, 0, 0)
    lines = addresses // geom.line
    miss = simulate_set_associative(addresses, geom)
    # First touches (compulsory misses by definition, in any cache).
    _, first_idx = np.unique(lines, return_index=True)
    compulsory_mask = np.zeros(lines.size, dtype=bool)
    compulsory_mask[first_idx] = True
    capacity_lines = geom.size // geom.line
    fa_hits = lru_hit_mask(lines, capacity_lines)
    compulsory = int((miss & compulsory_mask).sum())
    conflict = int((miss & ~compulsory_mask & fa_hits).sum())
    capacity = int((miss & ~compulsory_mask & ~fa_hits).sum())
    return MissBreakdown(
        accesses=int(addresses.size),
        compulsory=compulsory,
        capacity=capacity,
        conflict=conflict,
    )
