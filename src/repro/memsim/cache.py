"""Exact trace-driven cache simulation.

* :func:`simulate_direct_mapped` — miss mask of a direct-mapped cache:
  the capped stack-distance engine (:mod:`repro.memsim.engines`) at
  ``cap = 1``, where an access hits iff the previous access to its set
  touched the same line.  Both cache levels of the paper's UltraSPARC
  platform are direct-mapped.

* :class:`LRUCache` — reference set-associative LRU simulator (per-set
  move-to-front lists).  Exact for any associativity; O(assoc) Python
  work per access.  It is the *validation oracle*: sweeps go through
  the vectorized engine, and the test suite asserts bit-identical miss
  masks against this class.

Addresses are *byte* addresses; both return per-access miss masks so
callers can split statistics by matrix or by operation.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.engines import simulate_set_associative
from repro.memsim.machine import CacheGeometry

__all__ = ["simulate_direct_mapped", "LRUCache", "simulate_lru", "miss_count"]


def simulate_direct_mapped(addresses: np.ndarray, geom: CacheGeometry) -> np.ndarray:
    """Boolean miss mask for a direct-mapped cache over a byte-address trace."""
    if geom.assoc != 1:
        raise ValueError(f"direct-mapped engine got assoc={geom.assoc}")
    return simulate_set_associative(addresses, geom)


class LRUCache:
    """Reference set-associative LRU cache (stateful, per-access API)."""

    def __init__(self, geom: CacheGeometry):
        self.geom = geom
        self._sets: list[list[int]] = [[] for _ in range(geom.n_sets)]

    def reset(self) -> None:
        """Forget all cached lines."""
        self._sets = [[] for _ in range(self.geom.n_sets)]

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on miss."""
        line = address // self.geom.line
        idx = line % self.geom.n_sets
        ways = self._sets[idx]
        tag = line // self.geom.n_sets
        try:
            ways.remove(tag)
            ways.append(tag)
            return False
        except ValueError:
            ways.append(tag)
            if len(ways) > self.geom.assoc:
                ways.pop(0)
            return True

    def access_many(self, addresses: np.ndarray) -> np.ndarray:
        """Boolean miss mask over a trace (Python loop; reference only)."""
        out = np.empty(len(addresses), dtype=bool)
        for k, a in enumerate(np.asarray(addresses, dtype=np.int64)):
            out[k] = self.access(int(a))
        return out


def simulate_lru(addresses: np.ndarray, geom: CacheGeometry) -> np.ndarray:
    """One-shot LRU simulation (cold start) over a byte-address trace."""
    return LRUCache(geom).access_many(addresses)


def miss_count(addresses: np.ndarray, geom: CacheGeometry) -> int:
    """Total misses of ``geom`` over a byte-address trace."""
    return int(simulate_set_associative(addresses, geom).sum())
