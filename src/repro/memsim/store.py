"""Content-addressed on-disk cache of reuse profiles.

Pricing a multiply on a simulated hierarchy is a deterministic function
of a small parameter tuple — (algorithm, layout, n, tile, mode, depth)
plus the machine geometry.  Sweeps like Figure 4/5 re-price the same
traces run after run; this module memoizes one artifact per trace on
disk, its :class:`~repro.memsim.multiconfig.ReuseProfile`, stored as
``.npz``.  A profile is keyed by the trace parameters, the machine
fields that affect expansion (L1 line size, page size, item size) and
the machine's config family, so it prices every machine model of the
family within its caps.  Every price (:meth:`TraceStore.stats`) is a
query of that profile: a few lookups in miss tails the profile
precomputed, cheap enough that no priced result is stored.  A warm
profile is found in memory by the value of what its key covers; the
sha256 content key is derived only when that memo misses, to find the
``.npz``.  A profile is built at the caps of the machines asked for
together (one direct-mapped machine: one cheap pass; a fig6ms grid: its
union); a later machine beyond them rebuilds it at the stored caps
widened by the new request (counted as ``profile_rebuilds``, and as a
miss), so a rebuild never narrows what a profile prices.

The expanded address trace itself is never persisted: a profile miss
rebuilds it (:meth:`TraceStore.trace`), profiles it and drops it.

Keys are sha256 over a canonical JSON payload that includes a store
version; bumping :data:`_STORE_VERSION` invalidates everything at once
(e.g. if the expansion model changes).  Writes are atomic
(tmp + ``os.replace``) so concurrent sweep processes can share a store.

``REPRO_TRACE_CACHE_DIR`` relocates the store (default
``.benchmarks/tracecache/`` at the repo root); an empty directory means
a cold store.  Hit/miss counters on the store make cache behaviour
observable in tests and benchmark summaries.

Every multiply trace is built by the symbolic synthesizer
(:func:`~repro.memsim.synthesis.synthesize_multiply` +
:func:`~repro.memsim.synthesis.expand_table`), looked up by these names
in this module at call time.  The executed tracer stays in
:mod:`repro.memsim.trace` as the tests' reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import knobs, obs
from repro.memsim.hierarchy import MemoryStats
from repro.memsim.machine import MachineModel
from repro.memsim.multiconfig import ReuseProfile, build_profile
from repro.memsim.synthesis import EventTable, expand_table, synthesize_multiply
from repro.memsim.synthetic import (
    blocked_canonical_events,
    dense_standard_events,
    dense_strassen_events,
)

# Not called here, but bound by name: the end-to-end benchmark's
# ``--trace 1`` mode (benchmarks/e2e/tracing.py) wraps each of these in
# this module, and that table changes only with the benchmark.
from repro.memsim.hierarchy import simulate_hierarchy  # noqa: F401
from repro.memsim.trace import expand_trace, trace_multiply  # noqa: F401

__all__ = [
    "TraceStore",
    "default_store",
    "cached_multiply_stats",
    "cached_synthetic_stats",
]

# Bump to invalidate every cached artifact (key prefix).
_STORE_VERSION = 1

# How many warm profiles one store keeps in memory (least recently used
# evicted first); a sweep touches a handful of trace/family pairs.
_MEMO_PROFILES = 64

# What loading an empty, truncated or foreign artifact raises; every one
# of them is a cache miss and the artifact is rebuilt.
_DAMAGED = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


def _repo_root() -> Path:
    # src/repro/memsim/store.py -> repo root is three levels above src/.
    return Path(__file__).resolve().parents[3]


def _expansion_fingerprint(machine: MachineModel) -> dict:
    """The machine fields that affect trace *expansion* (not pricing)."""
    return {
        "line": machine.l1.line,
        "page": machine.page,
        "itemsize": machine.itemsize,
    }


def _profile_key(fields: dict, machine: MachineModel) -> str:
    """Content key of the profile of ``fields``' trace for ``machine``'s
    config family."""
    return TraceStore.key_of(
        {
            "kind": "profile",
            "v": _STORE_VERSION,
            "fields": fields,
            "expand": _expansion_fingerprint(machine),
            "family": dataclasses.asdict(machine.family),
        }
    )


class TraceStore:
    """Content-addressed reuse-profile cache rooted at one directory."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = knobs.path("REPRO_TRACE_CACHE_DIR") or (
                _repo_root() / ".benchmarks" / "tracecache"
            )
        self.root = Path(root)
        self.profile_hits = 0
        self.profile_misses = 0
        # Misses that found a profile too narrow for the request and
        # rebuilt it wider.
        self.profile_rebuilds = 0
        # Warm reuse-distance profiles with their content keys, least
        # recently used first, at most _MEMO_PROFILES of them, looked up
        # by the value of what the key covers (see profile()).
        self._profiles: dict[tuple, tuple[str, ReuseProfile]] = {}
        # Content addresses this store touched, in first-touch order:
        # key -> "hit" | "miss".  Run manifests embed these so any output
        # can name the exact cached artifacts it was computed from.
        self._touched: dict[str, str] = {}

    # -- bookkeeping ---------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Current hit/miss/rebuild counters (for reporting and tests)."""
        return {
            "profile_hits": self.profile_hits,
            "profile_misses": self.profile_misses,
            "profile_rebuilds": self.profile_rebuilds,
        }

    def reset_counters(self) -> None:
        """Zero all counters and the touched-key record."""
        self.profile_hits = self.profile_misses = self.profile_rebuilds = 0
        self._touched.clear()

    def touched_map(self) -> dict[str, str]:
        """Copy of the touched-key record (``kind:key`` -> verdict)."""
        return dict(self._touched)

    def merge_counters(
        self, counters: dict[str, int], touched: dict[str, str] | None = None
    ) -> None:
        """Fold another store's counter delta into this one.

        Sweep workers run against their own :class:`TraceStore` handle
        (same on-disk root) and ship ``counters()`` / ``touched_map()``
        back to the parent, which sums them here so cross-process cache
        behaviour stays observable in reports and manifests.  Touched
        keys keep first-touch semantics (an existing verdict wins).
        Metrics are *not* re-published — the workers already published
        theirs, and the obs merge carries those over separately.
        """
        self.profile_hits += int(counters.get("profile_hits", 0))
        self.profile_misses += int(counters.get("profile_misses", 0))
        self.profile_rebuilds += int(counters.get("profile_rebuilds", 0))
        for key, verdict in (touched or {}).items():
            self._touched.setdefault(key, verdict)

    def content_addresses(self) -> list[str]:
        """Touched cache keys (first-touch order) as ``kind:key=hit|miss``."""
        return [f"{key}={verdict}" for key, verdict in self._touched.items()]

    def _touch(self, key: str, hit: bool) -> None:
        if hit:
            self.profile_hits += 1
        else:
            self.profile_misses += 1
        self._touched.setdefault(f"profile:{key}", "hit" if hit else "miss")
        obs.add(f"memsim.store.profile_{'hits' if hit else 'misses'}")

    # -- keys and paths ------------------------------------------------

    @staticmethod
    def key_of(payload: dict) -> str:
        """Deterministic content key of a JSON-serializable payload."""
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".npz")

    def _write_atomic(self, path: Path, write) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".tmp.{os.getpid()}.{path.name}")
        try:
            write(tmp)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    # -- memoization ---------------------------------------------------

    def trace(self, fields: dict, build) -> np.ndarray:
        """Expanded byte-address trace for ``fields``, built afresh.

        ``fields`` must uniquely determine the event stream; ``build()``
        produces the expanded int64 address array.  Nothing is read or
        written: the store persists the trace's profile, not the trace.
        """
        with obs.span("store.trace.build", **fields):
            return np.asarray(build(), dtype=np.int64)

    def profile(
        self, fields: dict, machines: Sequence[MachineModel], build_trace
    ) -> ReuseProfile:
        """Reuse-distance profile of the trace behind ``fields`` that
        prices every machine in ``machines``, memoized in memory and on
        disk.

        The machines must share one config family and item size.  The
        key covers only the trace identity and the family — every
        machine model differing in capacity, associativity or cycle
        costs answers from the same artifact.  The in-memory memo is
        looked up by the value of what the key covers: ``fields``'
        items (str, int or ``None``; another item order only misses
        the memo), the family (which holds the L1 line and page) and
        the item size.  So a warm hit derives no key; the sha256 key is
        computed on a memo miss, to find the ``.npz``.  A miss rebuilds
        the trace with ``build_trace`` and profiles it at the machines'
        caps.  A memoized or stored profile that cannot price every
        machine (an L1 associativity is missing, or an associativity or
        TLB size exceeds its caps) counts as a miss and a rebuild, and
        is rebuilt at its own caps widened by the request.
        """
        head = machines[0]
        memo_key = (tuple(fields.items()), head.family, head.itemsize)
        memo = self._profiles.get(memo_key)
        key, prof = memo if memo else (_profile_key(fields, head), None)
        if prof is None and self._path(key).exists():
            try:
                with open(self._path(key), "rb") as fh:
                    prof = ReuseProfile.load(fh)
            except _DAMAGED:
                prof = None  # corrupt/partial file: rebuild below
        if prof is not None and all(map(prof.supports, machines)):
            self._touch(key, hit=True)
            self._remember_profile(memo_key, key, prof)
            return prof
        self._touch(key, hit=False)
        if prof is not None:
            self.profile_rebuilds += 1
            obs.add("memsim.store.profile_rebuilds")
        addrs = self.trace(fields, build_trace)
        prof = build_profile(addrs, [*machines, *(prof.reach() if prof else ())])

        def _save(tmp: Path) -> None:
            with open(tmp, "wb") as fh:
                prof.save(fh)

        self._write_atomic(self._path(key), _save)
        self._remember_profile(memo_key, key, prof)
        return prof

    def _remember_profile(
        self, memo_key: tuple, key: str, prof: ReuseProfile
    ) -> None:
        self._profiles.pop(memo_key, None)  # re-insert a hit as most recent
        self._profiles[memo_key] = (key, prof)
        while len(self._profiles) > _MEMO_PROFILES:
            self._profiles.pop(next(iter(self._profiles)))

    def stats(
        self,
        fields: dict,
        machines: Sequence[MachineModel],
        include_tlb: bool,
        build_trace,
    ) -> list[MemoryStats]:
        """Simulated :class:`MemoryStats` for ``fields``, one per machine.

        Every price is a query of the trace's reuse profile
        (:meth:`profile`): a few lookups in its precomputed miss tails,
        bit-identical to :func:`~repro.memsim.hierarchy.simulate_hierarchy`
        on the expanded trace (property-tested against the
        :class:`LRUCache` oracle).  So every machine after the first, or
        a warm re-run, costs only the query; the result is not stored.
        """
        prof = self.profile(fields, machines, build_trace)
        out = [prof.query(m, include_tlb=include_tlb) for m in machines]
        for st in out:
            st.publish()
        return out


_DEFAULT: TraceStore | None = None


def default_store() -> TraceStore:
    """Process-wide store (env-configured); create on first use."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = TraceStore()
    return _DEFAULT


# -- high-level helpers over the two event sources ---------------------

_SYNTHETIC_SOURCES = {
    "dense_standard": dense_standard_events,
    "dense_strassen": dense_strassen_events,
    "blocked_canonical": blocked_canonical_events,
}


def _multiply_fields(algorithm, layout, n, tile, mode, depth) -> dict:
    return {
        "src": "multiply",
        "algorithm": algorithm,
        "layout": layout.upper(),
        "n": int(n),
        "tile": int(tile),
        "mode": mode,
        "depth": depth,
    }


def _multiply_builder(algorithm, layout, n, tile, machine, mode, depth):
    # The trace source does not enter the cache key: the executed tracer
    # produces byte-identical streams (property-tested), and the tests
    # swap this builder for it.
    def build():
        table, sizes = synthesize_multiply(
            algorithm, layout, n, tile, mode=mode, depth=depth
        )
        return expand_table(table, machine, sizes)

    return build


def cached_multiply_stats(
    algorithm: str,
    layout: str,
    n: int,
    tile: int,
    machines: Sequence[MachineModel],
    *,
    mode: str = "accumulate",
    depth: int | None = None,
    include_tlb: bool = True,
    store: TraceStore | None = None,
) -> list[MemoryStats]:
    """Memoized hierarchy simulation of one traced multiply, one
    :class:`MemoryStats` per machine (one profile prices them all)."""
    store = store or default_store()
    return store.stats(
        _multiply_fields(algorithm, layout, n, tile, mode, depth),
        machines,
        include_tlb,
        _multiply_builder(algorithm, layout, n, tile, machines[0], mode, depth),
    )


def _synthetic_builder(source: str, machine: MachineModel, params: dict):
    def build():
        # The array representation expands vectorized, to the bytes
        # expand_trace would produce event by event.
        events = _SYNTHETIC_SOURCES[source](**params)
        return expand_table(EventTable.from_events(events), machine)

    return build


def _synthetic_fields(source: str, params: dict) -> dict:
    if source not in _SYNTHETIC_SOURCES:
        raise KeyError(
            f"unknown synthetic source {source!r}; "
            f"expected one of {sorted(_SYNTHETIC_SOURCES)}"
        )
    return {"src": source, **{k: params[k] for k in sorted(params)}}


def cached_synthetic_stats(
    source: str,
    machines: Sequence[MachineModel],
    *,
    include_tlb: bool = True,
    store: TraceStore | None = None,
    **params,
) -> list[MemoryStats]:
    """Memoized hierarchy simulation of a synthetic event source, one
    :class:`MemoryStats` per machine.

    ``source`` names a generator in :mod:`repro.memsim.synthetic`
    (``dense_standard``, ``dense_strassen``, ``blocked_canonical``);
    ``params`` are its keyword arguments (``n``, ``tile``, ...).
    """
    store = store or default_store()
    fields = _synthetic_fields(source, params)
    build = _synthetic_builder(source, machines[0], params)
    return store.stats(fields, machines, include_tlb, build)
