"""The ``python -m repro perf`` subcommand family.

Three surfaces over the history store and the differential engine:

* ``repro perf compare A B`` — align two runs (files, history record-id
  prefixes, or ``latest``) and print the classified delta table;
* ``repro perf check --against A --candidate B`` — the regression gate:
  exit 1 when any budgeted metric of B regresses past its
  ``perf_budgets`` allowance over A;
* ``repro perf history KEY`` — the trajectory of one metric across the
  append-only store, as a table plus a unicode sparkline.
"""

from __future__ import annotations

import argparse
import datetime
import json
from pathlib import Path

from repro.perf.compare import (
    best_of,
    compare_records,
    render_comparison,
    render_span_diff,
)
from repro.perf.history import HistoryStore, as_stream_name, build_record

__all__ = [
    "add_perf_parser",
    "resolve_run",
    "sparkline",
]

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """Eight-level unicode sparkline of a numeric series."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK[3] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def resolve_run(spec: str, store: HistoryStore) -> dict:
    """A run record from a CLI spec: path, ``latest[:stream]``, or a
    history record-id prefix."""
    if spec == "latest" or spec.startswith("latest:"):
        stream = spec.partition(":")[2] or None
        recs = store.latest(stream=stream)
        if not recs:
            raise SystemExit(
                f"perf: no history records"
                + (f" in stream {stream!r}" if stream else "")
                + f" under {store.root}"
            )
        return recs[-1]
    path = Path(spec)
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"perf: {path} is not valid JSON: {exc}")
        if not isinstance(data, dict) or not isinstance(data.get("metrics"), dict):
            raise SystemExit(f"perf: {path} does not hold a perf-history record")
        return data
    rec = store.find(spec)
    if rec is None:
        raise SystemExit(
            f"perf: {spec!r} is neither a file nor a record-id prefix in "
            f"{store.root}"
        )
    return rec


def _load_history(store: HistoryStore, stream: str | None) -> list[dict]:
    try:
        return store.load(stream)
    except OSError:
        return []


def _apply_window(
    candidate: dict, store: HistoryStore, stream: str, window: int
) -> dict:
    """Repeat-sample reduction: fold the last ``window - 1`` history
    records of ``stream`` into the candidate, keeping the best sample
    per key (min-of-k for lower-better, max-of-k for higher-better, the
    candidate's own for keys with no direction)."""
    if window <= 1:
        return candidate
    from repro import knobs
    from repro.perf.compare import _default_direction

    recs = [r for r in store.latest(stream=stream, n=window - 1)] + [candidate]
    metrics: dict[str, float] = {}
    for key, value in candidate.get("metrics", {}).items():
        budget = knobs.budget_for(key)
        direction = budget.direction if budget else _default_direction(key)
        samples = [
            float(r["metrics"][key])
            for r in recs
            if key in r.get("metrics", {})
        ]
        metrics[key] = best_of(samples, direction)
    reduced = build_record(
        metrics,
        source=f"{candidate.get('source', 'candidate')}@best-of-{len(recs)}",
        manifest=candidate.get("manifest"),
        spans=candidate.get("spans"),
    )
    return reduced


def _emit(comparison: dict, args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps(comparison, indent=2, sort_keys=True))
    else:
        print(render_comparison(comparison))
        if comparison.get("spans") and args.spans:
            print()
            print(render_span_diff(comparison["spans"]))


def _write_comparison(comparison: dict, out: str | None, store: HistoryStore):
    path = Path(out) if out else store.root / "last_comparison.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(comparison, indent=2, sort_keys=True) + "\n")
    except OSError:
        return None  # read-only checkout: the printed report still stands
    return path


def cmd_perf_compare(args: argparse.Namespace) -> None:
    store = HistoryStore(args.history_dir)
    baseline = resolve_run(args.baseline, store)
    candidate = resolve_run(args.candidate, store)
    comparison = compare_records(
        baseline, candidate, history=_load_history(store, None)
    )
    _emit(comparison, args)


def cmd_perf_check(args: argparse.Namespace) -> None:
    store = HistoryStore(args.history_dir)
    baseline = resolve_run(args.against, store)
    candidate = resolve_run(args.candidate, store)
    stream = as_stream_name(candidate.get("source") or "")
    candidate = _apply_window(candidate, store, stream, args.window)
    comparison = compare_records(
        baseline, candidate, history=_load_history(store, stream) or None
    )
    _emit(comparison, args)
    written = _write_comparison(comparison, args.out, store)
    if written and not args.json:
        print(f"\ncomparison: {written}")
    if not comparison["ok"]:
        raise SystemExit(1)


def cmd_perf_history(args: argparse.Namespace) -> None:
    store = HistoryStore(args.history_dir)
    points = store.series(args.key, stream=args.stream)
    if not points:
        raise SystemExit(
            f"perf: no history for metric {args.key!r} under {store.root}"
            + (f" (stream {args.stream})" if args.stream else "")
        )
    if args.limit:
        points = points[-args.limit:]
    values = [float(p["value"]) for p in points]
    title = f"{args.key}  ({len(points)} samples)"
    print(title)
    print("-" * len(title))
    print(sparkline(values))
    print(f"{'when':<17}  {'value':>14}  {'sha':<9}  source")
    for p in points:
        when = "-"
        if p.get("created_unix"):
            when = datetime.datetime.fromtimestamp(
                p["created_unix"]
            ).strftime("%Y-%m-%d %H:%M")
        sha = (p.get("git_sha") or "-")[:9]
        print(f"{when:<17}  {p['value']:>14.6g}  {sha:<9}  {p.get('source', '-')}")


def add_perf_parser(sub) -> None:
    """Wire the ``perf`` subcommand group into the repro CLI parser."""
    p = sub.add_parser(
        "perf",
        help="benchmark history, differential analysis, regression gate",
    )
    perf_sub = p.add_subparsers(dest="perf_command", required=True)

    def common(s) -> None:
        s.add_argument(
            "--history-dir", default=None,
            help="history store root (default: REPRO_PERF_HISTORY_DIR, "
                 "else .benchmarks/history)",
        )
        s.add_argument("--json", action="store_true",
                       help="emit the comparison JSON (the CI artifact format)")

    s = perf_sub.add_parser(
        "compare", help="diff two runs: files, record-id prefixes, or latest"
    )
    s.add_argument("baseline", help="baseline run (path | latest[:stream] | id)")
    s.add_argument("candidate", help="candidate run (path | latest[:stream] | id)")
    common(s)
    s.add_argument("--spans", action="store_true",
                   help="also print the span self-time diff table")
    s.set_defaults(fn=cmd_perf_compare)

    s = perf_sub.add_parser(
        "check",
        help="regression gate: candidate vs baseline under perf_budgets",
    )
    s.add_argument("--against", required=True,
                   help="baseline run (path | latest[:stream] | id)")
    s.add_argument("--candidate", required=True,
                   help="candidate run (path | latest[:stream] | id)")
    s.add_argument("--window", type=int, default=1, metavar="K",
                   help="repeat-sample reduction: best-of-K over the "
                        "candidate plus the last K-1 history records")
    s.add_argument("--out", default=None,
                   help="where to write the comparison JSON "
                        "(default: <history>/last_comparison.json)")
    common(s)
    s.add_argument("--spans", action="store_true",
                   help="also print the span self-time diff table")
    s.set_defaults(fn=cmd_perf_check)

    s = perf_sub.add_parser(
        "history", help="print one metric's trajectory from the store"
    )
    s.add_argument("key", help="flattened metric key, e.g. serve.request.p99")
    s.add_argument("--stream", default=None,
                   help="restrict to one stream (cli | benchmarks | serve)")
    s.add_argument("--limit", type=int, default=0, metavar="N",
                   help="show only the last N samples")
    s.add_argument("--history-dir", default=None,
                   help="history store root (default: REPRO_PERF_HISTORY_DIR, "
                        "else .benchmarks/history)")
    s.set_defaults(fn=cmd_perf_history)
