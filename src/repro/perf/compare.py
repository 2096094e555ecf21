"""Differential analysis over benchmark history records.

Aligns two runs (a candidate and its baseline record) by flattened
metric key, computes deltas, and classifies each key as ``improved`` /
``unchanged`` / ``regressed`` (plus ``added`` / ``removed`` for keys one
side never measured).  A key with no budget and no direction that its
name implies (a time, a rate or a speedup) — a hit count, say — is only
``changed`` or ``unchanged``: nothing says which way is better.  Two
mechanisms keep the classification honest:

* **Noise-aware tolerance bands.**  Run-to-run spread survives any
  timing discipline.  When the history store holds enough samples of a
  key, the band is derived from the median absolute deviation of the
  trajectory (``MAD_K * 1.4826 * MAD / |median|``, a robust sigma),
  floored at ``REL_FLOOR``; with a thin history the floor alone
  applies.  A delta inside the band is ``unchanged``.

* **Structural metrics are exact.**  Keys whose budget direction is
  ``exact`` (row counts) are deterministic functions of the code: any
  difference is a regression, no band.  Under
  ``REPRO_DETERMINISTIC_TIMING`` these are the *only* gated keys —
  timing-derived keys are classified but reported as ``skipped`` for
  gating purposes, because that mode exists precisely to make runs
  noise-free and structural.

Classification and *gating* are separate thresholds: a key regresses
when it moves beyond the noise band in the bad direction, but the gate
(``repro perf check``) fails only when the move also exceeds the key's
declared budget (``perf_budgets`` in :mod:`repro.knobs`).  Keys without
a budget are classified for the report but never fail the gate.
"""

from __future__ import annotations

import statistics

from repro import knobs
from repro.clock import deterministic_timing

__all__ = [
    "COMPARISON_SCHEMA_VERSION",
    "MAD_K",
    "REL_FLOOR",
    "best_of",
    "compare_records",
    "compare_spans",
    "noise_band",
    "render_comparison",
    "render_span_diff",
]

COMPARISON_SCHEMA_VERSION = 1

#: Relative tolerance floor when the history is too thin for a MAD band.
REL_FLOOR = 0.05

#: Robust-sigma multiplier for the MAD band (3-sigma-equivalent).
MAD_K = 3.0

#: Minimum history samples before the MAD band overrides the floor.
MIN_SAMPLES = 4


def noise_band(samples: list[float]) -> float:
    """Relative tolerance band from a key's history trajectory."""
    values = [float(v) for v in samples]
    if len(values) < MIN_SAMPLES:
        return REL_FLOOR
    med = statistics.median(values)
    if med == 0.0:
        return REL_FLOOR
    mad = statistics.median(abs(v - med) for v in values)
    return max(REL_FLOOR, MAD_K * 1.4826 * mad / abs(med))


def best_of(values: list[float], direction: str | None) -> float:
    """Repeat-sample reduction: the *best* of a window of samples.

    ``lower_better`` keys take the min (fastest observed run),
    ``higher_better`` the max; ``exact`` keys must all agree and any
    disagreement surfaces by returning the last sample (the comparison
    will then flag it against the baseline); keys with no direction
    keep the last sample too, the candidate's.
    """
    if not values:
        raise ValueError("best_of needs at least one sample")
    if direction == "lower_better":
        return min(values)
    if direction == "higher_better":
        return max(values)
    return values[-1]


def _bad_relative_move(base: float, cand: float, direction: str) -> float:
    """Fractional move in the *bad* direction (positive = worse)."""
    if base == 0.0:
        return 0.0 if cand == base else float("inf")
    rel = (cand - base) / abs(base)
    return rel if direction == "lower_better" else -rel


def _classify_key(
    key: str,
    base: float,
    cand: float,
    band: float,
    budget: knobs.PerfBudget | None,
    structural_only: bool,
) -> dict:
    direction = budget.direction if budget else _default_direction(key)
    entry: dict = {
        "baseline": base,
        "candidate": cand,
        "delta": cand - base,
        "direction": direction,
        "budget": budget.max_regression if budget else None,
        "tolerance": band,
    }
    if direction == "exact":
        matches = base == cand
        entry["class"] = "unchanged" if matches else "regressed"
        entry["over_budget"] = bool(budget) and not matches
        entry["gated"] = bool(budget)
        return entry
    if structural_only:
        # Deterministic-timing mode: timing-derived keys are noise-free
        # zeros or meaningless; only structural keys gate.
        entry["class"] = "skipped"
        entry["over_budget"] = False
        entry["gated"] = False
        return entry
    if direction is None:
        move = _bad_relative_move(base, cand, "lower_better")
        entry["class"] = "unchanged" if abs(move) <= band else "changed"
        entry["rel"] = move if base != 0.0 else None
        entry["over_budget"] = False
        entry["gated"] = False
        return entry
    bad = _bad_relative_move(base, cand, direction)
    if abs(bad) <= band:
        entry["class"] = "unchanged"
    elif bad > 0:
        entry["class"] = "regressed"
    else:
        entry["class"] = "improved"
    entry["rel"] = bad if base != 0.0 else None
    entry["over_budget"] = (
        budget is not None
        and entry["class"] == "regressed"
        and bad > budget.max_regression
    )
    entry["gated"] = budget is not None
    return entry


def _default_direction(key: str) -> str | None:
    """Direction of a key without a declared budget, read from its name:
    times are lower-better, rates and speedups higher-better, and
    anything else has none."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf.endswith("_seconds") or leaf == "seconds":
        return "lower_better"
    if (
        leaf.endswith("_per_sec")
        or leaf.endswith("speedup")
        or leaf.startswith("speedup")
    ):
        return "higher_better"
    return None


def compare_records(
    baseline: dict,
    candidate: dict,
    *,
    history: list[dict] | None = None,
    structural_only: bool | None = None,
) -> dict:
    """Full differential comparison of two runs (history-record shape).

    ``history`` feeds the per-key MAD tolerance bands (pass the loaded
    trajectory of the candidate's stream).  ``structural_only`` defaults
    to the live ``REPRO_DETERMINISTIC_TIMING`` knob.
    """
    if structural_only is None:
        structural_only = deterministic_timing()
    base_metrics = baseline.get("metrics", {})
    cand_metrics = candidate.get("metrics", {})
    samples: dict[str, list[float]] = {}
    for rec in history or []:
        for key, value in rec.get("metrics", {}).items():
            samples.setdefault(key, []).append(float(value))

    keys: dict[str, dict] = {}
    over_budget: list[str] = []
    counts = {"improved": 0, "unchanged": 0, "changed": 0, "regressed": 0,
              "skipped": 0, "added": 0, "removed": 0}
    for key in sorted(set(base_metrics) | set(cand_metrics)):
        if key not in cand_metrics:
            keys[key] = {"baseline": base_metrics[key], "candidate": None,
                         "class": "removed", "over_budget": False,
                         "gated": False}
            counts["removed"] += 1
            continue
        if key not in base_metrics:
            keys[key] = {"baseline": None, "candidate": cand_metrics[key],
                         "class": "added", "over_budget": False,
                         "gated": False}
            counts["added"] += 1
            continue
        budget = knobs.budget_for(key)
        band = noise_band(samples.get(key, []))
        entry = _classify_key(
            key, float(base_metrics[key]), float(cand_metrics[key]),
            band, budget, structural_only,
        )
        keys[key] = entry
        counts[entry["class"]] += 1
        if entry["over_budget"]:
            over_budget.append(key)

    base_core = baseline.get("manifest") or {}
    cand_core = candidate.get("manifest") or {}
    notes: list[str] = []
    base_machine = (base_core or {}).get("machine_sha256")
    cand_machine = (cand_core or {}).get("machine_sha256")
    if base_machine and cand_machine and base_machine != cand_machine:
        notes.append(
            "machine fingerprints differ; timing deltas reflect hardware "
            "as well as code"
        )
    comparison = {
        "schema_version": COMPARISON_SCHEMA_VERSION,
        "baseline": {
            "record_id": baseline.get("record_id"),
            "source": baseline.get("source"),
            "git_sha": ((base_core or {}).get("git") or {}).get("sha"),
        },
        "candidate": {
            "record_id": candidate.get("record_id"),
            "source": candidate.get("source"),
            "git_sha": ((cand_core or {}).get("git") or {}).get("sha"),
        },
        "deterministic_timing": structural_only,
        "keys": keys,
        "spans": compare_spans(
            baseline.get("spans") or {}, candidate.get("spans") or {}
        ),
        "summary": {**counts, "over_budget": over_budget},
        "notes": notes,
        "ok": not over_budget,
    }
    return comparison


def compare_spans(base: dict, cand: dict) -> dict[str, dict]:
    """Align two span self-time tables by name; deltas in seconds."""
    out: dict[str, dict] = {}
    for name in sorted(set(base) | set(cand)):
        b = base.get(name)
        c = cand.get(name)
        entry = {
            "baseline_self_s": b["self_s"] if b else None,
            "candidate_self_s": c["self_s"] if c else None,
        }
        if b and c:
            entry["delta_self_s"] = c["self_s"] - b["self_s"]
        out[name] = entry
    return out


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

_CLASS_ORDER = {"regressed": 0, "added": 1, "removed": 2, "changed": 3,
                "improved": 4, "unchanged": 5, "skipped": 6}


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def render_comparison(comparison: dict, *, limit: int = 0) -> str:
    """Human-readable comparison table, worst news first."""
    rows = sorted(
        comparison["keys"].items(),
        key=lambda kv: (_CLASS_ORDER.get(kv[1]["class"], 9), kv[0]),
    )
    if limit:
        rows = rows[:limit]
    lines = []
    header = (
        f"perf comparison: {comparison['candidate'].get('source') or '?'} vs "
        f"{comparison['baseline'].get('source') or '?'}"
        + (" [deterministic/structural-only]"
           if comparison["deterministic_timing"] else "")
    )
    lines.append(header)
    lines.append("-" * len(header))
    width = max([len(k) for k, _ in rows] + [len("metric")])
    lines.append(
        f"{'metric':<{width}}  {'baseline':>12}  {'candidate':>12}  "
        f"{'rel':>8}  {'band':>6}  class"
    )
    for key, entry in rows:
        rel = entry.get("rel")
        rel_s = f"{rel:+.1%}" if isinstance(rel, float) else "-"
        band = entry.get("tolerance")
        band_s = f"{band:.0%}" if isinstance(band, float) else "-"
        marker = " **OVER BUDGET**" if entry.get("over_budget") else ""
        lines.append(
            f"{key:<{width}}  {_fmt(entry.get('baseline')):>12}  "
            f"{_fmt(entry.get('candidate')):>12}  {rel_s:>8}  {band_s:>6}  "
            f"{entry['class']}{marker}"
        )
    s = comparison["summary"]
    lines.append("")
    lines.append(
        f"improved {s['improved']} / unchanged {s['unchanged']} / "
        f"changed {s['changed']} / regressed {s['regressed']} / "
        f"skipped {s['skipped']} / "
        f"added {s['added']} / removed {s['removed']}"
    )
    for note in comparison.get("notes", []):
        lines.append(f"note: {note}")
    if s["over_budget"]:
        lines.append(
            f"OVER BUDGET ({len(s['over_budget'])}): "
            + ", ".join(s["over_budget"])
        )
    else:
        lines.append("gate: OK (no budgeted metric regressed past its budget)")
    return "\n".join(lines)


def render_span_diff(span_diff: dict[str, dict], limit: int = 15) -> str:
    """Span self-time diff table, largest absolute delta first."""
    rows = [
        (name, e) for name, e in span_diff.items()
    ]
    rows.sort(
        key=lambda kv: -abs(kv[1].get("delta_self_s") or 0.0)
    )
    shown = rows[:limit] if limit else rows
    title = f"span self-time diff (showing {len(shown)} of {len(rows)})"
    lines = [title, "-" * len(title)]
    if not shown:
        lines.append("(no spans recorded on either side)")
        return "\n".join(lines)
    width = max([len(n) for n, _ in shown] + [len("span")])
    lines.append(
        f"{'span':<{width}}  {'base self s':>12}  {'cand self s':>12}  "
        f"{'delta':>10}"
    )
    for name, e in shown:
        b, c = e.get("baseline_self_s"), e.get("candidate_self_s")
        d = e.get("delta_self_s")
        b_s = "-" if b is None else format(b, ".4f")
        c_s = "-" if c is None else format(c, ".4f")
        d_s = "-" if d is None else format(d, "+.4f")
        lines.append(f"{name:<{width}}  {b_s:>12}  {c_s:>12}  {d_s:>10}")
    return "\n".join(lines)
