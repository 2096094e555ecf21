"""Machine-model geometries for the memory-hierarchy simulator.

The paper's platform was a Sun Enterprise 3000: four 170 MHz UltraSPARC
processors, each with a **direct-mapped 16 KB L1 data cache** (32-byte
lines) and a **direct-mapped 512 KB unified external cache** (64-byte
lines), a 64-entry fully-associative data TLB with 8 KB pages, and 384 MB
of memory.  Direct-mapped caches at both levels are exactly what makes
the canonical layout's conflict misses so visible in the paper's
Figure 5 — and they let the simulator use an exact vectorized algorithm
(:mod:`repro.memsim.cache`).

Because Python cannot trace billion-access streams, experiments usually
run on :func:`scaled` geometries: matrix dimensions and cache capacities
shrink by the same factor, preserving the matrix-size/cache-size ratios
that determine interference behaviour (documented substitution in
DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import functools
import numbers

__all__ = [
    "CacheGeometry",
    "ConfigFamily",
    "MachineModel",
    "ultrasparc_like",
    "modern_like",
    "scaled",
    "assoc_scaled",
]


def _require(obj, kind: type, least: int, *fields: str) -> None:
    """Raise ``ValueError`` unless every named field of ``obj`` is a
    ``kind`` number (never a bool) of at least ``least``."""
    for name in fields:
        value = getattr(obj, name)
        if not isinstance(value, kind) or isinstance(value, bool) or value < least:
            raise ValueError(
                f"{name} must be {kind.__name__.lower()} >= {least}, got {value!r}"
            )


@dataclasses.dataclass(frozen=True)
class CacheGeometry:
    """One cache level: capacity in bytes, line size, associativity."""

    size: int
    line: int
    assoc: int = 1

    def __post_init__(self) -> None:
        _require(self, numbers.Integral, 1, "size", "line", "assoc")
        if self.size % (self.line * self.assoc):
            raise ValueError(
                f"size {self.size} not divisible by line*assoc "
                f"({self.line}*{self.assoc})"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size // (self.line * self.assoc)


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
    def of(cls, machine: "MachineModel") -> "ConfigFamily":
        """``machine``'s family (:attr:`MachineModel.family`)."""
        return machine.family


@dataclasses.dataclass(frozen=True)
class MachineModel:
    """A full memory-hierarchy model with per-level cycle costs."""

    name: str
    l1: CacheGeometry
    l2: CacheGeometry
    tlb_entries: int = 64
    page: int = 8192
    itemsize: int = 8  # double precision
    # Cycle costs (UltraSPARC-era magnitudes).
    l1_hit: float = 1.0
    l2_hit: float = 10.0
    mem: float = 50.0
    tlb_miss: float = 40.0

    def __post_init__(self) -> None:
        _require(self, numbers.Integral, 1, "page", "itemsize")
        _require(self, numbers.Integral, 0, "tlb_entries")
        _require(self, numbers.Real, 0, "l1_hit", "l2_hit", "mem", "tlb_miss")

    @functools.cached_property
    def family(self) -> ConfigFamily:
        """The :class:`ConfigFamily` this machine is priced in, computed
        on first read and kept on the object.  Not a field: equality,
        hashing and ``dataclasses.asdict`` (the request and manifest
        forms) never see it."""
        return ConfigFamily(
            l1_line=self.l1.line,
            l1_sets=self.l1.n_sets,
            l2_line=self.l2.line,
            l2_sets=self.l2.n_sets,
            page=self.page,
        )


def ultrasparc_like() -> MachineModel:
    """Full-size Sun E3000-like geometry (use only with small traces)."""
    return MachineModel(
        name="ultrasparc",
        l1=CacheGeometry(16 * 1024, 32, 1),
        l2=CacheGeometry(512 * 1024, 64, 1),
        tlb_entries=64,
        page=8192,
    )


def modern_like() -> MachineModel:
    """A set-associative geometry in the style of later CPUs.

    8-way 32 KB L1 and 8-way 512 KB L2: associativity absorbs most
    set-index collisions, so the canonical layouts' conflict pathology
    largely disappears — the sensitivity experiment (E13) quantifying
    how much of the paper's win was specific to direct-mapped caches.
    (Simulation uses the exact per-set LRU engine; noticeably slower
    than the vectorized direct-mapped path.)
    """
    return MachineModel(
        name="modern",
        l1=CacheGeometry(32 * 1024, 64, 8),
        l2=CacheGeometry(512 * 1024, 64, 8),
        tlb_entries=64,
        page=4096,
        l2_hit=12.0,
        mem=60.0,
    )


def scaled(factor: int = 4) -> MachineModel:
    """Geometry shrunk by ``factor`` in cache capacity and TLB reach.

    Run matrices shrunk by the same linear factor to preserve the
    matrix-to-cache size ratio (areas shrink by factor^2, capacities by
    factor^2 as well via size/factor**2).
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    f2 = factor * factor
    l1_size = max(32 * 16, (16 * 1024) // f2)
    l2_size = max(64 * 64, (512 * 1024) // f2)
    return MachineModel(
        name=f"ultrasparc/{factor}",
        l1=CacheGeometry(l1_size, 32, 1),
        l2=CacheGeometry(l2_size, 64, 1),
        tlb_entries=max(8, 64 // factor),
        page=max(512, 8192 // factor),
    )


#: Machines kept by :func:`assoc_scaled`'s memo.  fig6ms's default grid
#: has 16; the bound only caps a long-lived process fed ever new ones.
_ASSOC_MEMO_SIZE = 128


@functools.lru_cache(maxsize=_ASSOC_MEMO_SIZE, typed=True)
def assoc_scaled(
    l1_assoc: int = 1, l2_assoc: int = 1, tlb_entries: int = 16
) -> MachineModel:
    """Associativity-scaling geometry with *fixed* set counts.

    Holds 64 L1 sets (32-byte lines) and 256 L2 sets (64-byte lines)
    while capacity grows with the way count, so every member of the
    grid shares one ``(line, n_sets)`` config family — the shape the
    multi-config reuse-distance profile answers from a single build
    (:mod:`repro.memsim.multiconfig`).  This is the machine-scaling
    axis of the paper's sensitivity question: how much of the recursive
    layouts' win survives as associativity buys out conflict misses.

    Memoized per argument tuple (``typed``, so ``1.0`` and ``True`` are
    validated on their own): a repeated grid gets the same frozen,
    already validated machine objects back.
    """
    if l1_assoc < 1 or l2_assoc < 1:
        raise ValueError(
            f"associativities must be >= 1, got {l1_assoc}/{l2_assoc}"
        )
    return MachineModel(
        name=f"assoc-l1w{l1_assoc}-l2w{l2_assoc}-tlb{tlb_entries}",
        l1=CacheGeometry(64 * 32 * l1_assoc, 32, l1_assoc),
        l2=CacheGeometry(256 * 64 * l2_assoc, 64, l2_assoc),
        tlb_entries=tlb_entries,
        page=2048,
        l2_hit=12.0,
        mem=60.0,
    )
