"""Checks of the end-to-end benchmark harness at toy sizes.

Run with ``REPRO_PERF_HISTORY=0 python3 -m pytest benchmarks/e2e/test_harness.py``
from the repository root.  Every workload runs through :func:`run.run`
with toy parameters passed as arguments, traced and untraced.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from workloads import WORKLOADS, row_digest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TOY = {
    "fig6sim_dm": {"kind": "memsim", "warm_ops": 40, "figure": "fig6sim",
                   "params": {"n": 16, "tile": 8, "machine": {"scaled": 4}}},
    "fig6ms_grid": {"kind": "memsim", "warm_ops": 40, "figure": "fig6ms",
                    "params": {"n": 16, "tile": 8}},
    "dgemm_layouts": {"kind": "dgemm", "warm_ops": 36, "params": {"n": 24}},
    "serve_mixed": {"kind": "serve", "warm_ops": 40, "grids": [
        {"figure": "fig6sim", "params": {"n": 16, "tile": 8,
                                         "machine": "ultrasparc"}},
        {"figure": "fig6ms", "params": {"n": 16, "tile": 8}},
    ]},
}


def _toy_digest(spec: dict, tmp_path: Path) -> str:
    """Row digest of a toy memsim job, computed in a child process."""
    request = {"figure": spec["figure"], "params": spec["params"]}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"),
         json.dumps({"kind": "rows", "requests": [request]})],
        cwd=ROOT, env=run.child_env(tmp_path / "store", tmp_path / "obs"),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return row_digest(json.loads(proc.stdout)["rows"][0])


def test_every_run_has_a_p90():
    assert all(run.MIN_SESSIONS * spec["warm_ops"] >= 100
               for spec in WORKLOADS.values())


def test_catalogue_matches_contract():
    doc = run.catalogue()
    e2e, layers = doc["end_to_end"], doc["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99)), 90) is None
    assert run.tail_percentile(list(range(100)), 90) == 89
    assert run.tail_percentile(list(range(20)), 50) == 9


def test_times_scale_by_the_probes_around_them():
    speed = HostSpeed()
    readings = iter([2 * REFERENCE_S, 4 * REFERENCE_S, REFERENCE_S])
    speed.probe = lambda: next(readings)
    speed.restart()
    with speed.timing() as first:
        time.sleep(0.01)
    with speed.timing() as second:
        time.sleep(0.01)
    assert first.scaled == pytest.approx(first.raw / 3)
    assert second.scaled == pytest.approx(second.raw / 2.5)


def test_long_intervals_are_probed_inside():
    speed = HostSpeed()
    readings = []

    def probe():
        readings.append(2 * REFERENCE_S)
        return readings[-1]

    speed.probe = probe
    speed.restart()
    with speed.timing(sample_s=0.02) as timing:
        time.sleep(0.15)
    assert len(readings) > 3
    assert 0.15 <= timing.raw < 0.3
    assert timing.scaled == pytest.approx(timing.raw / 2)


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric(name, trace, tmp_path):
    spec = TOY[name]
    expected = _toy_digest(spec, tmp_path) if spec["kind"] == "memsim" else None
    result, table = run.run(name, spec, seed=3, seconds=0.5, trace=trace,
                            work=tmp_path / "work", expected=expected)
    declared = [m["name"] for m in
                run.catalogue()["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == declared
    assert [row[0] for row in table[:len(declared)]] == declared
    assert all(n >= 1 for _, _, _, n in table)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SESSIONS * spec["warm_ops"]
    if trace:
        assert result["metrics"]["layers.coverage"]["value"] > 0.5
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_digest_counts_as_failure(tmp_path):
    result, _ = run.run("fig6sim_dm", TOY["fig6sim_dm"], seed=3, seconds=0.2,
                        trace=False, work=tmp_path, expected="0" * 64)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
