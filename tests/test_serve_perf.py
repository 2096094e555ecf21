"""Service-session perf records: ``repro serve --append-history`` feeds
the regression-tracking store and the serve latency budgets gate.

A serve session that shuts down cleanly appends exactly one record to
the ``serve`` history stream (source ``serve:session``).  These tests
run *real* service sessions (subprocess, HTTP, clean shutdown) against
a fixed workload and pin:

* the record's shape: flattened ``serve.*`` metrics including the
  latency percentiles (``serve.request.p99`` — histograms flatten to
  mean/count only, so the percentiles ride in as extra metrics) and
  the structural row count ``serve.sweep.rows``;
* the budget declarations the record feeds: ``serve.request.p99`` is a
  lower-better latency SLO, ``serve.sweep.rows`` an exact structural
  key — the only serve key gated under ``REPRO_DETERMINISTIC_TIMING``;
* the round trip: two identical sessions' records pass
  ``repro perf check`` bit-for-bit on the structural leg, and a
  perturbed row count trips the gate.
"""

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import knobs
from repro.perf import compare_records
from repro.serve.client import ServeClient

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKLOAD = {
    "n": 48,
    "tile": 8,
    "algorithms": ["standard", "strassen"],
    "layouts": ["LC", "LZ"],
    "machine": {"scaled": 4},
}

READY_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


def _run_session(workdir: Path) -> dict:
    """One full service session over the fixed workload; its record."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(REPO_ROOT / "src"),
        REPRO_DETERMINISTIC_TIMING="1",
        REPRO_TRACE_CACHE_DIR=str(workdir / "cache"),
        REPRO_OBS_DIR=str(workdir / "obs"),
        REPRO_PERF_HISTORY="1",
        REPRO_PERF_HISTORY_DIR=str(workdir / "history"),
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2",
         "--append-history"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    try:
        line = proc.stdout.readline()
        match = READY_RE.search(line)
        assert match, f"no readiness line: {line!r}\n{proc.stderr.read()}"
        client = ServeClient(f"http://127.0.0.1:{match.group(2)}", timeout=300.0)
        client.wait_ready(timeout=30.0)
        # Fixed workload: serial leg, pooled leg, one metrics read.
        client.rows("fig6sim", WORKLOAD, jobs=1)
        client.rows("fig6sim", WORKLOAD, jobs=2)
        client.metrics()
        code, payload = client.shutdown()
        assert code == 200
        history_path = payload["history"]
        assert history_path, "shutdown did not flush a history record"
        proc.wait(timeout=30)
    finally:
        # The server's own session: this also kills its pool workers.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
    lines = Path(history_path).read_text().splitlines()
    assert len(lines) == 1, "expected exactly one record per session"
    return json.loads(lines[0])


@pytest.fixture(scope="module")
def session_records(tmp_path_factory):
    """Two independent, identical service sessions' history records."""
    return (
        _run_session(tmp_path_factory.mktemp("serve-a")),
        _run_session(tmp_path_factory.mktemp("serve-b")),
    )


def test_session_record_shape(session_records):
    record, _ = session_records
    assert record["source"] == "serve:session"
    assert record["manifest"]["command"] == "serve"
    metrics = record["metrics"]
    # The latency percentiles arrive as extra metrics (histograms
    # flatten to mean/count only in record_from_obs).
    for key in ("serve.request.p50", "serve.request.p90",
                "serve.request.p99"):
        assert key in metrics
        assert metrics[key] == 0.0  # deterministic timing: exact zeros
    # Structural truth of the fixed workload: two fig6sim sweeps of
    # 2 algorithms x 2 layouts = 8 rows total.
    assert metrics["serve.sweep.rows"] == 8
    assert metrics["serve.jobs.executed"] == 2
    assert metrics["serve.request_seconds.count"] > 0
    # The session shares one warm store across both legs: the jobs=2
    # leg answered from profiles built by the jobs=1 leg.
    assert metrics["trace_cache.profile_hits"] >= 4


def test_serve_budgets_are_declared():
    p99 = knobs.budget_for("serve.request.p99")
    assert p99 is not None and p99.direction == "lower_better"
    rows = knobs.budget_for("serve.sweep.rows")
    assert rows is not None and rows.direction == "exact"
    assert rows.max_regression == 0.0


def test_identical_sessions_pass_the_structural_gate(session_records):
    """Two identical sessions: the exact serve.sweep.rows budget gates
    and passes; latency keys are skipped under deterministic timing."""
    base, cand = session_records
    comparison = compare_records(base, cand, structural_only=True)
    assert comparison["ok"], comparison["summary"]
    rows_entry = comparison["keys"]["serve.sweep.rows"]
    assert rows_entry["gated"]
    assert rows_entry["class"] == "unchanged"
    p99_entry = comparison["keys"]["serve.request.p99"]
    assert p99_entry["class"] == "skipped"  # timing keys don't gate here


def test_perturbed_row_count_trips_the_gate(session_records):
    base, cand = session_records
    perturbed = json.loads(json.dumps(cand))
    perturbed["metrics"]["serve.sweep.rows"] += 1
    comparison = compare_records(base, perturbed, structural_only=True)
    assert not comparison["ok"]
    assert "serve.sweep.rows" in comparison["summary"]["over_budget"]


def test_perf_check_cli_round_trip(session_records, tmp_path):
    """The records survive the CLI gate: ``repro perf check`` exits 0 on
    identical sessions and 1 on a perturbed candidate."""
    base, cand = session_records
    base_path = tmp_path / "base.json"
    cand_path = tmp_path / "cand.json"
    base_path.write_text(json.dumps(base))
    cand_path.write_text(json.dumps(cand))
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_DETERMINISTIC_TIMING="1")

    def check(candidate: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "perf", "check",
             "--against", str(base_path), "--candidate", str(candidate)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )

    result = check(cand_path)
    assert result.returncode == 0, result.stdout + result.stderr

    perturbed = json.loads(json.dumps(cand))
    perturbed["metrics"]["serve.sweep.rows"] += 1
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(perturbed))
    result = check(bad_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "serve.sweep.rows" in result.stdout
