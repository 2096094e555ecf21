"""Metrics registry: counters, gauges and histograms for the simulators.

The second half of the observability layer (spans live in
:mod:`repro.obs.core`).  Stats objects that already exist in the repo —
:class:`~repro.memsim.hierarchy.MemoryStats`,
:class:`~repro.runtime.scheduler.ScheduleResult`, the trace-cache
counters on :class:`~repro.memsim.store.TraceStore` — publish into this
registry via the gated helpers (:func:`add`, :func:`gauge`,
:func:`observe`), and ``python -m repro report`` dumps a snapshot.

Naming convention (dotted, lowercase): ``subsystem.object.metric`` —
e.g. ``memsim.store.profile_hits``, ``scheduler.ws.steals``,
``convert.elements``, ``timing.repeats``.  The taxonomy is documented
in ``docs/MODELING.md`` ("Observability").

All registry mutation helpers are no-ops while obs is disabled (one
flag check), so instrumented hot paths cost nothing in normal runs.
Histograms record count/total/min/max plus a bounded sample buffer
(first ``Histogram.MAX_SAMPLES`` observations) from which percentiles
are computed by the **nearest-rank** method — the only defensible
definition at small sample counts: p99 of 10 samples is the maximum,
reported as such, not an interpolated number that pretends to
resolution the data does not have.  Rendered output always carries an
explicit ``samples=`` count so readers can judge how much the
percentile means.
"""

from __future__ import annotations

import itertools
import math
import os
import threading

from repro.obs import core

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "add",
    "gauge",
    "observe",
    "registry",
]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-set value (e.g. a throughput snapshot)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """count/total/min/max summary plus a bounded sample buffer."""

    __slots__ = ("count", "total", "min", "max", "samples")

    #: Retained-sample cap: percentiles are exact up to this many
    #: observations, then computed over the first MAX_SAMPLES (the
    #: repo's histograms are per-run and stay far below the cap).
    MAX_SAMPLES = 512

    #: Percentiles carried in :meth:`summary` / rendered output.
    PERCENTILES = (50, 90, 99)

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < self.MAX_SAMPLES:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile over the retained samples.

        Rank ``ceil(p/100 * n)`` (1-based) of the sorted samples — an
        *observed* value, never interpolated.  With small n this is
        honest by construction: p99 of 10 samples is the sample maximum.
        Returns None when nothing was retained.
        """
        if not self.samples:
            return None
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def merge_summary(self, summary: dict) -> None:
        """Fold another histogram's ``summary()`` dict into this one."""
        count = int(summary.get("count") or 0)
        if not count:
            return
        self.count += count
        self.total += float(summary["total"])
        if summary["min"] < self.min:
            self.min = float(summary["min"])
        if summary["max"] > self.max:
            self.max = float(summary["max"])
        room = self.MAX_SAMPLES - len(self.samples)
        if room > 0:
            values = summary.get("sample_values") or []
            self.samples.extend(float(v) for v in values[:room])

    def summary(self) -> dict:
        if not self.count:
            return {
                "count": 0, "total": 0.0, "min": None, "max": None,
                "mean": 0.0, "samples": 0, "sample_values": [],
            }
        out = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "samples": len(self.samples),
            "sample_values": list(self.samples),
        }
        for p in self.PERCENTILES:
            out[f"p{p}"] = self.percentile(p)
        return out


class MetricsRegistry:
    """Thread-safe name -> instrument map with a JSON-able snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._snapshot_ids = itertools.count(1)
        self._merged_ids: set[str] = set()

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter()
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge()
            return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram()
            return h

    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument, sorted by name.

        Each snapshot carries a process-unique ``snapshot_id`` so a
        receiving registry can refuse to merge the same run twice —
        counter merges are additive, and double-merging would silently
        double every count.
        """
        with self._lock:
            return {
                "snapshot_id": f"{os.getpid()}-{next(self._snapshot_ids)}",
                "counters": {k: self._counters[k].value for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].summary() for k in sorted(self._histograms)
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another registry (typically a
        sweep worker process) into this one: counters add, gauges take
        the incoming value (last writer wins), histograms merge their
        count/total/min/max/sample summaries.

        Merging is additive, **not** idempotent: re-merging the same
        snapshot would double every counter.  Snapshots carrying a
        ``snapshot_id`` therefore fail loudly on the second merge;
        hand-built snapshot dicts without an id are merged unguarded.
        """
        sid = snapshot.get("snapshot_id")
        if sid is not None:
            with self._lock:
                if sid in self._merged_ids:
                    raise ValueError(
                        f"snapshot {sid!r} already merged into this registry; "
                        f"merging a run with itself would double its counters"
                    )
                self._merged_ids.add(sid)
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_summary(summary)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._merged_ids.clear()


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def add(name: str, amount: int | float = 1) -> None:
    """Increment counter ``name``; no-op while obs is disabled."""
    if core.enabled():
        _registry.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name``; no-op while obs is disabled."""
    if core.enabled():
        _registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample; no-op while obs is disabled."""
    if core.enabled():
        _registry.histogram(name).observe(value)
