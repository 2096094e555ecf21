"""Plain-text rendering of the current obs state (``python -m repro report``)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import core, metrics

__all__ = [
    "SpanReadError",
    "load_spans_jsonl",
    "read_spans_jsonl",
    "render_report",
    "render_top_spans",
    "top_spans",
]


def _section(title: str) -> list[str]:
    return [title, "-" * len(title)]


class SpanReadError(RuntimeError):
    """A spans JSONL path is missing or unreadable (not merely dirty)."""


def read_spans_jsonl(path) -> tuple[list[dict], int]:
    """Read span records back from a ``spans.jsonl`` export.

    Returns ``(records, skipped)``: lines that are not valid JSON
    objects are skipped and counted rather than aborting the whole read
    — a truncated line from a killed worker must not take down the
    report of every span that *was* recorded.  A missing or unreadable
    file raises :class:`SpanReadError` with a message fit to print.
    """
    p = Path(path)
    if not p.exists():
        raise SpanReadError(
            f"spans file not found: {p} (run with REPRO_OBS=1 or via "
            f"`repro report` to produce one)"
        )
    records: list[dict] = []
    skipped = 0
    try:
        with open(p) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if isinstance(rec, dict):
                    records.append(rec)
                else:
                    skipped += 1
    except OSError as exc:
        raise SpanReadError(f"cannot read spans file {p}: {exc}") from exc
    return records, skipped


def load_spans_jsonl(path) -> list[dict]:
    """Span records from a JSONL export (malformed lines skipped)."""
    return read_spans_jsonl(path)[0]


def top_spans(spans: list[dict]) -> list[tuple[str, int, float, float]]:
    """Aggregate spans per name as ``(name, count, total_s, self_s)``,
    hottest self-time first.

    Self time is a span's duration minus the durations of its direct
    children (by the ``id``/``parent`` links), i.e. the time actually
    spent at that level rather than delegated — the number that ranks
    hotspots honestly when spans nest.
    """
    child_time: dict[int, float] = {}
    for rec in spans:
        parent = rec.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + rec.get("dur", 0.0)
    agg: dict[str, list] = {}
    for rec in spans:
        name = rec.get("name", "?")
        dur = rec.get("dur", 0.0)
        row = agg.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time.get(rec.get("id"), 0.0)
    rows = [(name, c, total, self_t) for name, (c, total, self_t) in agg.items()]
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows


def render_top_spans(spans: list[dict], limit: int = 10) -> str:
    """Self-time hotspot table of the ``limit`` hottest span names."""
    rows = top_spans(spans)
    lines = _section(f"top spans by self time (showing {min(limit, len(rows))}"
                     f" of {len(rows)})")
    if not rows:
        lines.append("(none recorded — is REPRO_OBS enabled?)")
        return "\n".join(lines)
    total_self = sum(r[3] for r in rows) or 1.0
    shown = rows[:limit]
    width = max(max(len(r[0]) for r in shown), len("span"))
    lines.append(
        f"{'span':<{width}}  {'count':>7}  {'total s':>10}  {'self s':>10}  {'self%':>6}"
    )
    for name, count, total, self_t in shown:
        lines.append(
            f"{name:<{width}}  {count:>7d}  {total:>10.4f}  {self_t:>10.4f}  "
            f"{self_t / total_self:>6.1%}"
        )
    return "\n".join(lines)


def render_report(store=None) -> str:
    """Human-readable dump: span counts/totals, metrics, cache counters."""
    if store is None:
        from repro.memsim.store import default_store

        store = default_store()
    lines: list[str] = []

    c = store.counters()
    lines += _section("trace cache")
    lines.append(f"root: {store.root}")
    hits, misses = c["profile_hits"], c["profile_misses"]
    rate = hits / (hits + misses) if hits + misses else 0.0
    lines.append(
        f"profiles: {hits} hit / {misses} miss (hit rate {rate:.0%}), "
        f"{c['profile_rebuilds']} rebuilt wider"
    )

    counts = core.collector().counts()
    totals = core.collector().totals()
    lines.append("")
    lines += _section(f"spans ({sum(counts.values())} finished)")
    if counts:
        width = max(len(n) for n in counts)
        for name in sorted(counts, key=lambda n: -totals[n]):
            lines.append(
                f"{name:<{width}}  x{counts[name]:<6d} {totals[name]:10.4f}s"
            )
    else:
        lines.append("(none recorded — is REPRO_OBS enabled?)")

    snap = metrics.registry().snapshot()
    lines.append("")
    lines += _section("metrics")
    any_metric = False
    for name, value in snap["counters"].items():
        lines.append(f"counter    {name} = {value}")
        any_metric = True
    for name, value in snap["gauges"].items():
        lines.append(f"gauge      {name} = {value:g}")
        any_metric = True
    for name, h in snap["histograms"].items():
        if h["count"]:
            # Percentiles are nearest-rank over the retained samples;
            # the explicit samples= count says how much they mean
            # (p99 of 7 samples is just the max, and reads as such).
            pcts = " ".join(
                f"p{p}={h[f'p{p}']:g}"
                for p in (50, 90, 99)
                if h.get(f"p{p}") is not None
            )
            lines.append(
                f"histogram  {name}: n={h['count']} mean={h['mean']:g} "
                f"min={h['min']:g} max={h['max']:g}"
                + (f" {pcts}" if pcts else "")
                + f" (samples={h.get('samples', 0)})"
            )
        else:
            lines.append(f"histogram  {name}: n=0")
        any_metric = True
    if not any_metric:
        lines.append("(none recorded)")
    return "\n".join(lines)
