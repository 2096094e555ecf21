"""Append-only, content-addressed benchmark history store.

This module gives every benchmark-producing entry point (the ``python
-m repro`` sweep drivers, the pytest-benchmark session, ``repro serve
--append-history``) a durable append target: one JSON record per run,
one JSONL stream per source, under ``.benchmarks/history/``
(``REPRO_PERF_HISTORY_DIR`` relocates it; ``REPRO_PERF_HISTORY=0``
disables appending entirely).

A record is *content-addressed*: ``record_id`` is the sha256 over the
canonical JSON of its stable payload (flattened metrics, span
self-times, and the manifest core — git SHA, knob effective-config,
machine fingerprint, jobs).  Re-running identical code on identical
configuration yields the same id, so the history deduplicates
conceptually even though every run still appends (the trajectory keeps
noise samples — that is what the MAD tolerance bands in
:mod:`repro.perf.compare` feed on).

Metrics are *flattened*: nested sections become dotted snake_case keys
(``serve.request.p99``), keeping only numeric scalar leaves.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro import knobs
from repro.clock import wall_clock

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "HistoryStore",
    "as_stream_name",
    "build_record",
    "default_history_dir",
    "flatten_metrics",
    "history_enabled",
    "manifest_core",
    "record_from_obs",
    "record_id",
    "span_self_times",
]

HISTORY_SCHEMA_VERSION = 1

#: Manifest fields that survive into the record's content address
#: (everything volatile — timestamps, argv, touched cache keys — is
#: dropped so identical configurations hash identically).
_MANIFEST_CORE_FIELDS = ("command", "git", "jobs", "knobs", "platform", "python")


def _repo_root() -> Path:
    # src/repro/perf/history.py -> repo root is three levels above src/.
    return Path(__file__).resolve().parents[3]


def as_stream_name(source: str) -> str:
    """History stream for a record source (``cli:fig4`` -> ``cli``)."""
    stem = source.partition(":")[0].partition("@")[0]
    cleaned = "".join(
        ch if (ch.isalnum() or ch in "_-") else "_" for ch in stem
    ).strip("._") or "adhoc"
    return cleaned


def default_history_dir() -> Path:
    """Root of the history store (knob-relocatable)."""
    env = knobs.path("REPRO_PERF_HISTORY_DIR")
    return Path(env) if env else _repo_root() / ".benchmarks" / "history"


def history_enabled() -> bool:
    """Whether runs should append history records at all."""
    return knobs.flag("REPRO_PERF_HISTORY")


def flatten_metrics(data: dict, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to dotted keys, keeping numeric scalar leaves.

    Lists, strings, booleans and None are dropped — a metric is a number
    with a stable name.
    """
    out: dict[str, float] = {}
    for key, value in data.items():
        dotted = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten_metrics(value, prefix=dotted))
        elif isinstance(value, bool) or value is None:
            continue
        elif isinstance(value, (int, float)):
            out[dotted] = float(value) if isinstance(value, float) else value
    return out


def span_self_times(spans: list[dict]) -> dict[str, dict]:
    """Per-name span aggregate ``{name: {count, total_s, self_s}}``.

    Same self-time accounting as ``repro report --top-spans`` (span
    duration minus direct children), keyed for record storage and
    differential comparison.
    """
    from repro.obs.report import top_spans

    return {
        name: {"count": count, "total_s": total, "self_s": self_t}
        for name, count, total, self_t in top_spans(spans)
    }


def manifest_core(manifest: dict | None) -> dict:
    """The stable subset of a provenance manifest that identifies a
    configuration: git revision, effective knobs, machine fingerprint,
    worker count, interpreter/platform."""
    manifest = manifest or {}
    core: dict = {
        key: manifest[key] for key in _MANIFEST_CORE_FIELDS if key in manifest
    }
    machine = manifest.get("machine")
    if isinstance(machine, dict) and "sha256" in machine:
        core["machine_sha256"] = machine["sha256"]
    return core


def record_id(payload: dict) -> str:
    """sha256 over the canonical JSON of a record's stable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_record(
    metrics: dict[str, float],
    *,
    source: str,
    manifest: dict | None = None,
    spans: dict[str, dict] | None = None,
) -> dict:
    """Assemble one provenance-linked, content-addressed history record."""
    core = manifest_core(manifest)
    payload = {
        "source": source,
        "metrics": dict(sorted(metrics.items())),
        "spans": spans or {},
        "manifest": core,
    }
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "record_id": record_id(payload),
        "created_unix": wall_clock(),
        **payload,
    }


def record_from_obs(
    *, source: str, manifest: dict | None = None, extra_metrics: dict | None = None
) -> dict:
    """History record from the live obs state of this process.

    Used by the CLI sweep drivers: flattened metrics-registry snapshot
    plus trace-store counters (prefixed ``trace_cache.``), span
    self-times when obs is recording, and the run manifest core.
    """
    from repro import obs
    from repro.memsim.store import default_store

    metrics: dict[str, float] = {}
    snap = obs.registry().snapshot()
    for name, value in snap.get("counters", {}).items():
        metrics[name] = value
    for name, value in snap.get("gauges", {}).items():
        metrics[name] = value
    for name, summary in snap.get("histograms", {}).items():
        if summary.get("count"):
            metrics[f"{name}.mean"] = summary["mean"]
            metrics[f"{name}.count"] = summary["count"]
    for name, value in default_store().counters().items():
        metrics[f"trace_cache.{name}"] = value
    if extra_metrics:
        metrics.update(flatten_metrics(extra_metrics))
    spans = None
    if obs.enabled():
        records = obs.collector().spans()
        if records:
            spans = span_self_times(records)
    return build_record(metrics, source=source, manifest=manifest, spans=spans)


class HistoryStore:
    """One directory of append-only per-source JSONL record streams."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_history_dir()

    def path(self, stream: str) -> Path:
        if not stream or "/" in stream or stream.startswith("."):
            raise ValueError(f"invalid history stream name {stream!r}")
        return self.root / f"{stream}.jsonl"

    def streams(self) -> list[str]:
        """Names of every stream with at least one record."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.jsonl"))

    def append(self, record: dict, stream: str) -> Path:
        """Append one record (one line); returns the stream path.

        Appends are atomic at the line level: the record is serialized
        first and written with a single ``write`` call on a file opened
        in append mode, so concurrent appenders interleave whole lines.
        """
        if "record_id" not in record:
            raise ValueError("record has no record_id; use build_record()")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path = self.path(stream)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return path

    def load(self, stream: str | None = None) -> list[dict]:
        """All records, oldest first (malformed lines are skipped).

        ``stream=None`` merges every stream, ordered by ``created_unix``
        (ties broken by stream name for determinism).
        """
        names = [stream] if stream is not None else self.streams()
        out: list[tuple[float, str, int, dict]] = []
        for name in names:
            path = self.path(name)
            if not path.exists():
                continue
            with open(path) as fh:
                for lineno, line in enumerate(fh):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(rec, dict):
                        out.append(
                            (float(rec.get("created_unix", 0.0)), name, lineno, rec)
                        )
        out.sort(key=lambda item: (item[0], item[1], item[2]))
        return [rec for _, _, _, rec in out]

    def latest(self, stream: str | None = None, n: int = 1) -> list[dict]:
        """The ``n`` most recent records, oldest of the window first."""
        records = self.load(stream)
        return records[-n:] if n > 0 else []

    def find(self, record_id_prefix: str, stream: str | None = None) -> dict | None:
        """Most recent record whose id starts with ``record_id_prefix``."""
        for rec in reversed(self.load(stream)):
            if str(rec.get("record_id", "")).startswith(record_id_prefix):
                return rec
        return None

    def series(
        self, key: str, stream: str | None = None
    ) -> list[dict]:
        """Trajectory of one metric key across the history, oldest first.

        Each point: ``{created_unix, value, record_id, source, git_sha}``.
        Records that never measured ``key`` are skipped.
        """
        points: list[dict] = []
        for rec in self.load(stream):
            metrics = rec.get("metrics", {})
            if key not in metrics:
                continue
            git = (rec.get("manifest") or {}).get("git") or {}
            points.append(
                {
                    "created_unix": rec.get("created_unix"),
                    "value": metrics[key],
                    "record_id": rec.get("record_id"),
                    "source": rec.get("source"),
                    "git_sha": git.get("sha"),
                }
            )
        return points
