"""Multi-level memory-hierarchy simulation with a cycle cost model.

Runs a line-granularity byte-address trace through L1 -> L2 (direct-
mapped on the modelled UltraSPARC, set-associative on the modern
profile) and a fully-associative LRU TLB, then prices the run:

    cycles = accesses * l1_hit + l1_misses * l2_hit
             + l2_misses * mem + tlb_misses * tlb_miss

The absolute numbers are a model, but the *differences* across layouts
and matrix sizes — conflict-miss swings of canonical layouts, the tile-
size capacity cliff, the insensitivity of recursive layouts — are the
trace-determined phenomena the paper measures.

Every level is priced by the one capped stack-distance engine
(:mod:`repro.memsim.engines`): :func:`simulate_hierarchy` builds the
trace's reuse-distance profile at the machine's own associativities and
TLB size (:func:`repro.memsim.multiconfig.build_profile` for
``[machine]``) and queries it once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.clock import raw_perf_counter
from repro.memsim.machine import MachineModel

__all__ = ["MemoryStats", "simulate_hierarchy"]


@dataclasses.dataclass(frozen=True)
class MemoryStats:
    """Outcome of one trace simulation."""

    accesses: int
    l1_misses: int
    l2_misses: int
    tlb_misses: int
    cycles: float

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses per access."""
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L1 miss."""
        return self.l2_misses / self.l1_misses if self.l1_misses else 0.0

    @property
    def cpa(self) -> float:
        """Cycles per access — the headline cost figure."""
        return self.cycles / self.accesses if self.accesses else 0.0

    def publish(self, prefix: str = "memsim") -> None:
        """Publish this simulation into the obs metrics registry (gated:
        returns at once when obs is off)."""
        if not obs.enabled():
            return
        obs.add(f"{prefix}.simulations")
        obs.add(f"{prefix}.accesses", self.accesses)
        obs.add(f"{prefix}.l1_misses", self.l1_misses)
        obs.add(f"{prefix}.l2_misses", self.l2_misses)
        obs.add(f"{prefix}.tlb_misses", self.tlb_misses)
        obs.observe(f"{prefix}.l1_miss_rate", self.l1_miss_rate)
        obs.observe(f"{prefix}.cycles_per_access", self.cpa)


def simulate_hierarchy(
    addresses: np.ndarray,
    machine: MachineModel,
    include_tlb: bool = True,
) -> MemoryStats:
    """Price a byte-address trace on the machine model."""
    # Late import: multiconfig builds on this module's MemoryStats.
    from repro.memsim.multiconfig import build_profile

    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return MemoryStats(0, 0, 0, 0, 0.0)
    t0 = raw_perf_counter() if obs.enabled() else 0.0
    prof = build_profile(addresses, [machine])
    stats = prof.query(machine, include_tlb=include_tlb)
    if obs.enabled():
        elapsed = raw_perf_counter() - t0
        if elapsed > 0:
            obs.gauge("memsim.events_per_sec", addresses.size / elapsed)
        obs.observe("memsim.simulate_seconds", elapsed)
    return stats
