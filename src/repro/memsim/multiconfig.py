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

:meth:`ReuseProfile.query` then derives exact :class:`MemoryStats` for
any machine in the family within the caps, with O(histogram) work — no
per-config replay.  :func:`build_profile` caps wide enough for the
fig6ms associativity/TLB grid; :func:`profile_at_machine_caps` caps at
one machine's own associativities (one L2 pass), which is how
:func:`repro.memsim.hierarchy.simulate_hierarchy` prices a single
machine.  Configs that change a level's line size or set count (a
different *family*) need a fresh profile.

Histograms are int64; profiles persist as ``.npz`` in the
:class:`~repro.memsim.store.TraceStore`, which keeps no trace.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.memsim.engines import set_stack_distances, stack_distances
from repro.memsim.hierarchy import MemoryStats
from repro.memsim.machine import MachineModel

__all__ = [
    "CANONICAL_ASSOCS",
    "TLB_CAP",
    "ConfigFamily",
    "ReuseProfile",
    "build_profile",
    "profile_at_machine_caps",
]

#: L1 associativities every profile precomputes L2 histograms for; sweep
#: grids rarely leave this set, so most queries never force a rebuild.
CANONICAL_ASSOCS = (1, 2, 4, 8)

#: Smallest TLB-entry cap of a :func:`build_profile` histogram.
TLB_CAP = 64

#: Bump to invalidate persisted profile artifacts (npz schema).
_PROFILE_VERSION = 2


@dataclasses.dataclass(frozen=True)
class ConfigFamily:
    """The machine fields a reuse profile is valid for.

    Two machines share a profile iff they agree on every field here;
    capacities, associativities and cycle costs are free to differ
    (capacity enters only through ``n_sets = size / (line * assoc)``,
    which is pinned per family).
    """

    l1_line: int
    l1_sets: int
    l2_line: int
    l2_sets: int
    page: int

    @classmethod
    def of(cls, machine: MachineModel) -> "ConfigFamily":
        return cls(
            l1_line=machine.l1.line,
            l1_sets=machine.l1.n_sets,
            l2_line=machine.l2.line,
            l2_sets=machine.l2.n_sets,
            page=machine.page,
        )


def _histogram(sd: np.ndarray, cap: int) -> np.ndarray:
    """``cap + 1``-bin histogram of a capped distance array."""
    return np.bincount(sd, minlength=cap + 1).astype(np.int64)


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

    def supports(self, machine: MachineModel) -> bool:
        """Whether :meth:`query` can price this machine exactly."""
        l2_hist = self.l2.get(machine.l1.assoc)
        return (
            ConfigFamily.of(machine) == self.family
            and l2_hist is not None
            and machine.l2.assoc < l2_hist.size
            and machine.tlb_entries < self.tlb_hist.size
        )

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
        with obs.span("multiconfig.query", machine=machine.name):
            l1_misses = int(self.l1_hist[machine.l1.assoc :].sum())
            l2_hist = self.l2[machine.l1.assoc]
            l2_misses = int(l2_hist[machine.l2.assoc :].sum())
            tlb_misses = (
                int(self.tlb_hist[machine.tlb_entries :].sum())
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


def _build(
    addresses: np.ndarray,
    family: ConfigFamily,
    assocs: list[int],
    l1_cap: int,
    l2_cap: int,
    tlb_cap: int,
) -> ReuseProfile:
    """Profile of ``family`` with L2 histograms for ``assocs`` (each at
    most ``l1_cap``), at the given caps."""
    l1_sd = set_stack_distances(addresses // family.l1_line, family.l1_sets, l1_cap)
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
        _histogram(l1_sd, l1_cap),
        _histogram(tlb_sd, tlb_cap),
        l2,
    )


def build_profile(
    addresses: np.ndarray,
    machine: MachineModel,
    extra_assocs: tuple[int, ...] | set[int] = (),
) -> ReuseProfile:
    """One vectorized pass over a byte-address trace producing the
    reuse-distance profile of ``machine``'s config family.

    L2 histograms are built for :data:`CANONICAL_ASSOCS` plus the
    machine's own L1 associativity plus ``extra_assocs``.  L1 and L2
    distances are capped at the largest of those and the machine's L2
    associativity, the TLB at ``max(TLB_CAP, machine.tlb_entries)``.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    assocs = sorted({*CANONICAL_ASSOCS, machine.l1.assoc, *extra_assocs})
    cap = max(assocs[-1], machine.l2.assoc)
    with obs.span("multiconfig.build", accesses=addresses.size, assocs=len(assocs)):
        obs.add("multiconfig.profile_builds")
        return _build(
            addresses,
            ConfigFamily.of(machine),
            assocs,
            cap,
            cap,
            max(TLB_CAP, machine.tlb_entries),
        )


def profile_at_machine_caps(
    addresses: np.ndarray, machine: MachineModel
) -> ReuseProfile:
    """The profile of one machine only: distances capped at its own
    associativities and TLB size, one L2 pass."""
    return _build(
        np.asarray(addresses, dtype=np.int64),
        ConfigFamily.of(machine),
        [machine.l1.assoc],
        machine.l1.assoc,
        machine.l2.assoc,
        machine.tlb_entries,
    )
