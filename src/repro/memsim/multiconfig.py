"""One-pass multi-configuration cache simulation via reuse-distance profiles.

Every machine model in a sweep re-simulates the same machine-independent
address stream; Mattson's stack-distance observation collapses that work.
One vectorized pass of the capped engine
(:func:`repro.memsim.engines.set_stack_distances`) computes each access's
within-set LRU stack distance, capped at the largest associativity any
query will ask about; an access misses a set-associative LRU cache of
associativity ``a <= cap`` iff its capped distance reaches ``a``.  A
``cap + 1``-bin *histogram* of the distances (bin ``cap`` holds first
touches and everything farther) therefore answers every associativity
up to the cap of the same ``(line, n_sets)`` family by a suffix sum,
``misses(a) = hist[a:].sum()``.  A :class:`ReuseProfile` holds:

* the **L1 histogram** over the stream's L1-line distances (per-set
  family ``(l1.line, l1.n_sets)``),
* one **L2 histogram per L1 associativity** — L2 sees only the L1-miss
  stream, and the miss mask of *any* L1 associativity up to the cap is
  derivable from the same distance array (``sd >= a``), so the build
  precomputes the requested associativities,
* the **TLB histogram** over the page stream (the TLB is fully
  associative, family ``n_sets = 1`` — any entry count up to its cap
  queries from one histogram).

A profile derives each histogram's suffix sums (its *miss tail*,
``tail[a] = hist[a:].sum()``) once, at construction (built, loaded or
made directly), so :meth:`ReuseProfile.query` derives exact
:class:`MemoryStats` for any machine in the family within the caps by a
few index lookups — no per-config replay and no per-query sum.
:func:`build_profile` caps at exactly what the machines it is given ask
for: one machine's own associativities and TLB size (one L2 pass, how
:func:`repro.memsim.hierarchy.simulate_hierarchy` prices a machine), or
a whole associativity/TLB grid's union (fig6ms).  Configs that change a
level's line size or set count (a different *family*) need a fresh
profile.

Histograms are int64; profiles persist as ``.npz`` in the
:class:`~repro.memsim.store.TraceStore`, which keeps no trace.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro import obs
from repro.memsim.engines import set_stack_distances, stack_distances
from repro.memsim.hierarchy import MemoryStats
from repro.memsim.machine import CacheGeometry, ConfigFamily, MachineModel

__all__ = ["ConfigFamily", "ReuseProfile", "build_profile"]

#: Bump to invalidate persisted profile artifacts (npz schema).
_PROFILE_VERSION = 2


def _histogram(sd: np.ndarray, cap: int) -> np.ndarray:
    """``cap + 1``-bin histogram of a capped distance array."""
    return np.bincount(sd, minlength=cap + 1).astype(np.int64)


def _tail(hist: np.ndarray) -> list[int]:
    """Miss tail of a histogram: ``tail[a] == int(hist[a:].sum())``, the
    misses at capacity ``a``."""
    return np.cumsum(hist[::-1])[::-1].tolist()


@dataclasses.dataclass(frozen=True)
class ReuseProfile:
    """Capped stack-distance histograms answering every config of one
    family; a histogram of ``cap + 1`` bins prices capacities up to
    ``cap``."""

    family: ConfigFamily
    accesses: int
    l1_hist: np.ndarray
    tlb_hist: np.ndarray
    #: L1 associativity -> L2 stack-distance histogram over the
    #: L1-miss stream of that associativity.
    l2: dict[int, np.ndarray]
    # Miss tails of the histograms above (see _tail), derived once at
    # construction so a query indexes instead of summing.
    _l1_tail: list[int] = dataclasses.field(init=False, repr=False, compare=False)
    _tlb_tail: list[int] = dataclasses.field(init=False, repr=False, compare=False)
    _l2_tail: dict[int, list[int]] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_l1_tail", _tail(self.l1_hist))
        object.__setattr__(self, "_tlb_tail", _tail(self.tlb_hist))
        object.__setattr__(
            self, "_l2_tail", {a: _tail(h) for a, h in self.l2.items()}
        )

    def supports(self, machine: MachineModel) -> bool:
        """Whether :meth:`query` can price this machine exactly."""
        l2_tail = self._l2_tail.get(machine.l1.assoc)
        return (
            machine.family == self.family
            and l2_tail is not None
            and machine.l2.assoc < len(l2_tail)
            and machine.tlb_entries < len(self._tlb_tail)
        )

    def reach(self) -> list[MachineModel]:
        """The widest family members this profile prices, one per L1
        associativity: a build for them (and more) never prices less."""
        f = self.family
        l2_assoc = next(iter(self.l2.values())).size - 1
        return [
            MachineModel(
                name=f"reach-l1w{assoc}",
                l1=CacheGeometry(f.l1_line * f.l1_sets * assoc, f.l1_line, assoc),
                l2=CacheGeometry(
                    f.l2_line * f.l2_sets * l2_assoc, f.l2_line, l2_assoc
                ),
                tlb_entries=self.tlb_hist.size - 1,
                page=f.page,
            )
            for assoc in self.l2
        ]

    def query(self, machine: MachineModel, include_tlb: bool = True) -> MemoryStats:
        """Exact :class:`MemoryStats` of the profiled stream on
        ``machine`` — bit-identical to the :class:`LRUCache` oracle."""
        if not self.supports(machine):
            raise ValueError(
                f"profile of family {self.family} cannot price {machine.name!r}"
            )
        n = self.accesses
        if n == 0:
            return MemoryStats(0, 0, 0, 0, 0.0)
        l1_assoc = machine.l1.assoc
        l1_misses = self._l1_tail[l1_assoc]
        l2_misses = self._l2_tail[l1_assoc][machine.l2.assoc]
        tlb_misses = (
            self._tlb_tail[machine.tlb_entries]
            if include_tlb and machine.tlb_entries > 0
            else 0
        )
        cycles = (
            n * machine.l1_hit
            + l1_misses * machine.l2_hit
            + l2_misses * machine.mem
            + tlb_misses * machine.tlb_miss
        )
        return MemoryStats(n, l1_misses, l2_misses, tlb_misses, cycles)

    # -- persistence (npz in the trace store) ---------------------------

    def save(self, fh) -> None:
        """Write the profile to an open binary file as ``.npz``."""
        assocs = sorted(self.l2)
        arrays = {
            "meta": np.array([_PROFILE_VERSION, self.accesses], dtype=np.int64),
            "family": np.array(dataclasses.astuple(self.family), dtype=np.int64),
            "l1_hist": self.l1_hist,
            "tlb_hist": self.tlb_hist,
            "l2_assocs": np.array(assocs, dtype=np.int64),
        }
        for assoc in assocs:
            arrays[f"l2_hist_{assoc}"] = self.l2[assoc]
        np.savez(fh, **arrays)

    @classmethod
    def load(cls, fh) -> "ReuseProfile":
        """Read a profile written by :meth:`save`; raises ``ValueError``
        on a schema/version mismatch."""
        with np.load(fh) as data:
            meta = data["meta"]
            if int(meta[0]) != _PROFILE_VERSION:
                raise ValueError(f"profile version {int(meta[0])} unsupported")
            return cls(
                family=ConfigFamily(*(int(v) for v in data["family"])),
                accesses=int(meta[1]),
                l1_hist=data["l1_hist"],
                tlb_hist=data["tlb_hist"],
                l2={int(a): data[f"l2_hist_{int(a)}"] for a in data["l2_assocs"]},
            )


def build_profile(
    addresses: np.ndarray, machines: Sequence[MachineModel]
) -> ReuseProfile:
    """One vectorized pass over a byte-address trace producing the
    reuse-distance profile that prices every machine in ``machines``.

    The machines must share one config family.  L2 histograms are built
    for exactly their L1 associativities; L1 distances are capped at the
    largest of those, L2 distances at the largest L2 associativity, TLB
    distances at the largest TLB size (0 prices no TLB).
    """
    families = {m.family for m in machines}
    if len(families) != 1:
        raise ValueError(
            f"a profile prices machines of one config family, got {len(families)}"
        )
    (family,) = families
    addresses = np.asarray(addresses, dtype=np.int64)
    assocs = sorted({m.l1.assoc for m in machines})
    l2_cap = max(m.l2.assoc for m in machines)
    tlb_cap = max(m.tlb_entries for m in machines)
    with obs.span("multiconfig.build", accesses=addresses.size, assocs=len(assocs)):
        obs.add("multiconfig.profile_builds")
        l1_sd = set_stack_distances(
            addresses // family.l1_line, family.l1_sets, assocs[-1]
        )
        tlb_sd = stack_distances(addresses // family.page, tlb_cap)
        l2_lines = addresses // family.l2_line
        l2 = {
            assoc: _histogram(
                set_stack_distances(l2_lines[l1_sd >= assoc], family.l2_sets, l2_cap),
                l2_cap,
            )
            for assoc in assocs
        }
        return ReuseProfile(
            family,
            int(addresses.size),
            _histogram(l1_sd, assocs[-1]),
            _histogram(tlb_sd, tlb_cap),
            l2,
        )
