"""Compare two sets of benchmark runs, one (workload, metric) pair at a time.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are directories of result
files written by ``run.py --out``, ideally ten seeds per workload each.
For every end-to-end metric of ``BENCHMARK.json`` on every workload the
verdict is:

* ``unresolved`` — either side's run-to-run spread (interquartile range
  over median) is wider than the metric's bound, and the runs of B are
  not all better, or all worse, than the runs of A;
* ``REGRESSION`` — B's median is worse than A's by more than the bound
  (with wide spreads: and every run of B is worse than every run of A);
* ``improved`` — B's median is better than A's by more than the bound,
  or every run of B is better than every run of A;
* ``ok`` — the medians differ by less than the bound.

There is no combined score.  The exit status is 1 when any pair
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values of every untraced run in ``directory``."""
    runs: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("trace"):
            continue
        metrics = runs.setdefault(doc["workload"], {})
        for name, metric in doc["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range over median; infinite with fewer than 2 runs."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """(relative worsening of B's median over A's, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    worse = sign * (statistics.median(b) - med_a) / med_a
    if max(spread(a), spread(b)) > bound:
        low, high = (b, a) if better == "lower" else (a, b)
        if max(low) < min(high):
            return worse, "improved"
        if min(low) > max(high) and worse > bound:
            return worse, "REGRESSION"
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound:
        return worse, "improved"
    return worse, "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_runs, b_runs = (load_runs(Path(p)) for p in argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{'workload':<14} {'metric':<16} {'A median':>12} {'B median':>12} "
          f"{'worse':>8} {'spreadA':>8} {'spreadB':>8} {'bound':>6}  verdict")
    regressions = 0
    unresolved = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in metrics:
            name = metric["name"]
            a, b = a_runs[workload][name], b_runs[workload][name]
            worse, word = verdict(a, b, metric["better"], metric["bound"])
            regressions += word == "REGRESSION"
            if word == "unresolved":
                unresolved.append(f"{workload}/{name}")
            print(f"{workload:<14} {name:<16} {statistics.median(a):>12.5g} "
                  f"{statistics.median(b):>12.5g} {worse:>+8.1%} "
                  f"{spread(a):>8.1%} {spread(b):>8.1%} {metric['bound']:>6.0%}  "
                  f"{word}")
    only = sorted(set(a_runs) ^ set(b_runs))
    if only:
        print(f"workloads on one side only: {', '.join(only)}")
    print(f"unresolved: {', '.join(unresolved) if unresolved else 'none'}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
