"""Content-addressed on-disk cache of reuse profiles and simulation results.

Pricing a multiply on a simulated hierarchy is a deterministic function
of a small parameter tuple — (algorithm, layout, n, tile, mode, depth)
plus the machine geometry.  Sweeps like Figure 4/5 re-price the same
traces run after run; this module memoizes two artifacts on disk so a
warm re-run skips straight to the cached
:class:`~repro.memsim.hierarchy.MemoryStats`:

* **profiles** — the trace's
  :class:`~repro.memsim.multiconfig.ReuseProfile`, stored as ``.npz``.
  Keyed by the trace parameters, the machine fields that affect
  expansion (L1 line size, page size, item size) and the machine's
  config family, so one profile prices every machine model of the
  family within its caps.
* **stats** — the simulated :class:`MemoryStats`, stored as JSON.
  Keyed by the trace parameters plus the *full* machine model
  (capacities, associativities, cycle costs) and the ``include_tlb``
  flag.

The expanded address trace itself is never persisted: a profile miss
rebuilds it (:meth:`TraceStore.trace`), profiles it and drops it.

Keys are sha256 over a canonical JSON payload that includes a store
version; bumping :data:`_STORE_VERSION` invalidates everything at once
(e.g. if the expansion model changes).  Writes are atomic
(tmp + ``os.replace``) so concurrent sweep processes can share a store.

Set ``REPRO_TRACE_CACHE=0`` to disable caching entirely (every call
recomputes, nothing is read or written); ``REPRO_TRACE_CACHE_DIR``
relocates the store (default ``.benchmarks/tracecache/`` at the repo
root).  Hit/miss counters on the store make cache behaviour observable
in tests and benchmark summaries.

Every trace is built by the symbolic synthesizer
(:func:`~repro.memsim.synthesis.synthesize_multiply` +
:func:`~repro.memsim.synthesis.expand_table`); a multiply whose
algorithm has no synthesis spec falls back to the executed tracer
(:func:`~repro.memsim.trace.trace_multiply` +
:func:`~repro.memsim.trace.expand_trace`).  The four are looked up by
these names in this module at call time, so a test can swap one out and
force every trace through the other path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro import knobs, obs
from repro.memsim.hierarchy import MemoryStats, simulate_hierarchy
from repro.memsim.machine import MachineModel
from repro.memsim.multiconfig import ConfigFamily, ReuseProfile, build_profile
from repro.memsim.synthesis import (
    EventTable,
    UnsupportedSynthesis,
    expand_table,
    synthesize_multiply,
)
from repro.memsim.synthetic import (
    blocked_canonical_events,
    dense_standard_events,
    dense_strassen_events,
)
from repro.memsim.trace import expand_trace, trace_multiply

__all__ = [
    "TraceStore",
    "default_store",
    "trace_address",
    "cached_multiply_stats",
    "cached_synthetic_stats",
]

# Bump to invalidate every cached artifact (key prefix).
_STORE_VERSION = 1

# What loading an empty, truncated or foreign artifact raises; every one
# of them is a cache miss and the artifact is rebuilt.
_DAMAGED = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


def _repo_root() -> Path:
    # src/repro/memsim/store.py -> repo root is three levels above src/.
    return Path(__file__).resolve().parents[3]


def _machine_fingerprint(machine: MachineModel) -> dict:
    return dataclasses.asdict(machine)


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
            "family": dataclasses.asdict(ConfigFamily.of(machine)),
        }
    )


class TraceStore:
    """Content-addressed profile/stats cache rooted at one directory."""

    def __init__(self, root: str | Path | None = None, enabled: bool | None = None):
        if enabled is None:
            enabled = knobs.flag("REPRO_TRACE_CACHE")
        if root is None:
            root = knobs.path("REPRO_TRACE_CACHE_DIR") or (
                _repo_root() / ".benchmarks" / "tracecache"
            )
        self.root = Path(root)
        self.enabled = bool(enabled)
        self.stats_hits = 0
        self.stats_misses = 0
        self.profile_hits = 0
        self.profile_misses = 0
        # Warm reuse-distance profiles by content key (bounded; a sweep
        # touches a handful of trace/family pairs, not thousands).
        self._profiles: dict[str, ReuseProfile] = {}
        # Content addresses this store touched, in first-touch order:
        # key -> "hit" | "miss".  Run manifests embed these so any output
        # can name the exact cached artifacts it was computed from.
        self._touched: dict[str, str] = {}

    # -- bookkeeping ---------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Current hit/miss counters (for reporting and tests)."""
        return {
            "stats_hits": self.stats_hits,
            "stats_misses": self.stats_misses,
            "profile_hits": self.profile_hits,
            "profile_misses": self.profile_misses,
        }

    def reset_counters(self) -> None:
        """Zero all hit/miss counters and the touched-key record."""
        self.stats_hits = self.stats_misses = 0
        self.profile_hits = self.profile_misses = 0
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
        self.stats_hits += int(counters.get("stats_hits", 0))
        self.stats_misses += int(counters.get("stats_misses", 0))
        self.profile_hits += int(counters.get("profile_hits", 0))
        self.profile_misses += int(counters.get("profile_misses", 0))
        for key, verdict in (touched or {}).items():
            self._touched.setdefault(key, verdict)

    def content_addresses(self) -> list[str]:
        """Touched cache keys (first-touch order) as ``kind:key=hit|miss``."""
        return [f"{key}={verdict}" for key, verdict in self._touched.items()]

    def _touch(self, kind: str, key: str, hit: bool) -> None:
        self._touched.setdefault(f"{kind}:{key}", "hit" if hit else "miss")
        obs.add(f"memsim.store.{kind}_{'hits' if hit else 'misses'}")

    # -- keys and paths ------------------------------------------------

    @staticmethod
    def key_of(payload: dict) -> str:
        """Deterministic content key of a JSON-serializable payload."""
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str, suffix: str) -> Path:
        return self.root / key[:2] / (key + suffix)

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
        self, fields: dict, machine: MachineModel, build_trace
    ) -> ReuseProfile:
        """Reuse-distance profile of the trace behind ``fields``, for
        ``machine``'s config family, memoized in memory and on disk.

        The key covers only the trace identity and the family — every
        machine model differing in capacity, associativity or cycle
        costs answers from the same artifact.  A miss rebuilds the
        trace with ``build_trace``.  A persisted profile that cannot
        price the machine (its L1 associativity is missing, or an
        associativity or TLB size exceeds the profile's caps) counts as
        a miss and is rebuilt with the union of L1 associativities.
        """
        key = _profile_key(fields, machine)
        prof = self._profiles.get(key)
        if prof is None:
            path = self._path(key, ".npz")
            if path.exists():
                try:
                    with open(path, "rb") as fh:
                        prof = ReuseProfile.load(fh)
                except _DAMAGED:
                    prof = None  # corrupt/partial file: rebuild below
        if prof is not None and prof.supports(machine):
            self.profile_hits += 1
            self._touch("profile", key, hit=True)
            obs.add("multiconfig.profile_hits")
            self._remember_profile(key, prof)
            return prof
        self.profile_misses += 1
        self._touch("profile", key, hit=False)
        addrs = self.trace(fields, build_trace)
        extra = tuple(prof.l2) if prof is not None else ()
        prof = build_profile(addrs, machine, extra_assocs=extra)

        def _save(tmp: Path) -> None:
            with open(tmp, "wb") as fh:
                prof.save(fh)

        self._write_atomic(self._path(key, ".npz"), _save)
        self._remember_profile(key, prof)
        return prof

    def _remember_profile(self, key: str, prof: ReuseProfile) -> None:
        self._profiles[key] = prof
        while len(self._profiles) > 64:
            self._profiles.pop(next(iter(self._profiles)))

    def stats(
        self,
        fields: dict,
        machine: MachineModel,
        include_tlb: bool,
        build_trace,
    ) -> MemoryStats:
        """Simulated :class:`MemoryStats` for ``fields``, memoized on disk.

        On a stats hit neither the trace expansion nor the simulation
        runs.  On a stats miss the stats are answered from the shared
        reuse-distance profile (:meth:`profile`), so a second machine
        model in the same config family costs only a histogram suffix
        sum.  A disabled store prices the trace with
        :func:`simulate_hierarchy` (the profile at the machine's own
        caps); both produce bit-identical :class:`MemoryStats`
        (property-tested against the :class:`LRUCache` oracle).
        """
        if not self.enabled:
            addrs = self.trace(fields, build_trace)
            st = simulate_hierarchy(addrs, machine, include_tlb=include_tlb)
            st.publish()
            return st
        key = self.key_of(
            {
                "kind": "stats",
                "v": _STORE_VERSION,
                "fields": fields,
                "machine": _machine_fingerprint(machine),
                "include_tlb": bool(include_tlb),
            }
        )
        path = self._path(key, ".json")
        if path.exists():
            try:
                payload = json.loads(path.read_text())
                st = MemoryStats(**payload)
            except (OSError, ValueError, TypeError):
                pass
            else:
                self.stats_hits += 1
                self._touch("stats", key, hit=True)
                st.publish()
                return st
        self.stats_misses += 1
        self._touch("stats", key, hit=False)
        prof = self.profile(fields, machine, build_trace)
        with obs.span("store.stats.simulate", key=key[:16], **fields):
            st = prof.query(machine, include_tlb=include_tlb)
        blob = json.dumps(dataclasses.asdict(st))
        self._write_atomic(path, lambda tmp: tmp.write_text(blob))
        st.publish()
        return st


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
    # Symbolic synthesis and the executed tracer produce byte-identical
    # streams (property-tested), so the source does not enter the cache
    # key: either path may fill a slot the other reads.
    def build():
        try:
            table, sizes = synthesize_multiply(
                algorithm, layout, n, tile, mode=mode, depth=depth
            )
        except UnsupportedSynthesis:
            events, sizes = trace_multiply(
                algorithm, layout, n, tile, mode=mode, depth=depth
            )
            return expand_trace(events, machine, sizes)
        return expand_table(table, machine, sizes)

    return build


def trace_address(
    algorithm: str,
    layout: str,
    n: int,
    tile: int,
    machine: MachineModel,
    *,
    mode: str = "accumulate",
    depth: int | None = None,
) -> str:
    """Content address of one multiply's expanded trace (an identity,
    not a store file: traces are never persisted).

    Sweep drivers group points by this key: two points share it iff
    they simulate the *same* address stream (machine pricing fields do
    not enter), so scheduling a group onto one worker lets every member
    after the first answer from the warm reuse-distance profile.
    """
    return TraceStore.key_of(
        {
            "kind": "trace",
            "v": _STORE_VERSION,
            "fields": _multiply_fields(algorithm, layout, n, tile, mode, depth),
            "expand": _expansion_fingerprint(machine),
        }
    )


def cached_multiply_stats(
    algorithm: str,
    layout: str,
    n: int,
    tile: int,
    machine: MachineModel,
    *,
    mode: str = "accumulate",
    depth: int | None = None,
    include_tlb: bool = True,
    store: TraceStore | None = None,
) -> MemoryStats:
    """Memoized hierarchy simulation of one traced multiply."""
    store = store or default_store()
    return store.stats(
        _multiply_fields(algorithm, layout, n, tile, mode, depth),
        machine,
        include_tlb,
        _multiply_builder(algorithm, layout, n, tile, machine, mode, depth),
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
    machine: MachineModel,
    *,
    include_tlb: bool = True,
    store: TraceStore | None = None,
    **params,
) -> MemoryStats:
    """Memoized hierarchy simulation of a synthetic event source.

    ``source`` names a generator in :mod:`repro.memsim.synthetic`
    (``dense_standard``, ``dense_strassen``, ``blocked_canonical``);
    ``params`` are its keyword arguments (``n``, ``tile``, ...).
    """
    store = store or default_store()
    fields = _synthetic_fields(source, params)
    build = _synthetic_builder(source, machine, params)
    return store.stats(fields, machine, include_tlb, build)
