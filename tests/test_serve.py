"""Black-box tests of the simulation service (``python -m repro serve``).

The server runs in a *separate process* for every fixture here — these
tests exercise the real wire path (subprocess boot, readiness line,
HTTP over loopback, hard-kill teardown), not in-process shortcuts.

What is pinned:

* **Byte identity.**  A served ``fig6sim`` sweep at the golden-grid
  parameters serializes to exactly the committed
  ``tests/golden/fig6sim.json`` bytes, for both the serial
  (``jobs=1``) and pooled (``jobs=2``) execution paths — the service
  is a transport around the drivers, never a fork of them.
* **Coalescing.**  Identical requests from concurrent clients share
  one execution: one ``serve.jobs.executed`` increment, a nonzero
  ``serve.coalesced`` counter, the same job id and identical rows on
  both responses.
* **Error surface.**  Malformed JSON, unknown figures, bad params and
  unknown job ids come back as structured 4xx JSON, never 500s.
* **Fault tolerance.**  A worker SIGKILLed mid-sweep breaks the pool;
  the service retries the job on a fresh pool, and a reuse profile
  corrupted in the store before the sweep is rebuilt cleanly (the same
  corrupt-artifact machinery as ``tests/test_store_concurrency.py``).
* **Disconnect hygiene.**  A client that vanishes mid-request leaves
  no orphaned queued/running job behind.
* **Process hygiene.**  A pool worker exits on SIGTERM and, through
  its parent watch, soon after a SIGKILL of the server alone; the hard
  teardown kills the server's whole process group, so no worker
  outlives its server.
"""

import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve.client import ServeClient

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "fig6sim.json"

#: The golden fig6sim grid from tests/test_golden_figures.py, in wire
#: form ({"scaled": 4} resolves to the same ``scaled(4)`` machine).
GOLDEN_PARAMS = {
    "n": 48,
    "tile": 8,
    "algorithms": ["standard", "strassen"],
    "layouts": ["LC", "LZ"],
    "machine": {"scaled": 4},
}

READY_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


def _serialize(rows) -> bytes:
    return (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode()


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a server started in its own session, with every pool
    worker it forked, and reap the server."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10)


class ServerUnderTest:
    """One ``repro serve`` subprocess plus a client pointed at it."""

    def __init__(self, workdir: Path, extra_env: dict | None = None,
                 args: tuple = ()):
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_DETERMINISTIC_TIMING="1",
            REPRO_TRACE_CACHE_DIR=str(workdir / "cache"),
            REPRO_OBS_DIR=str(workdir / "obs"),
        )
        env.update(extra_env or {})
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            start_new_session=True,
        )
        # Readiness contract: first stdout line names the bound port
        # (EOF here means the server died; surface its stderr).
        line = self.proc.stdout.readline()
        match = READY_RE.search(line)
        if not match:
            _kill_group(self.proc)
            raise AssertionError(
                f"no readiness line (got {line!r}); stderr:\n"
                f"{self.proc.stderr.read()}"
            )
        self.port = int(match.group(2))
        self.client = ServeClient(f"http://127.0.0.1:{self.port}", timeout=300.0)
        self.client.wait_ready(timeout=30.0)

    def kill(self) -> None:
        """Hard teardown: never leaves an orphan, even on test failure.

        The server runs in its own session, so one SIGKILL to its
        process group also takes the pool workers it forked.
        """
        _kill_group(self.proc)
        self.proc.stdout.close()
        self.proc.stderr.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One shared service instance for the read-mostly tests."""
    srv = ServerUnderTest(tmp_path_factory.mktemp("serve"))
    yield srv
    srv.kill()


# -- golden byte-identity ----------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_served_fig6sim_is_byte_identical_to_golden(server, jobs):
    """The service is a transport: served rows == committed golden bytes.

    jobs=1 exercises the exact serial driver path inside the service;
    jobs=2 goes through the shared persistent worker pool.  Both must
    serialize to the same bytes as ``tests/golden/fig6sim.json``.
    """
    rows = server.client.rows("fig6sim", GOLDEN_PARAMS, jobs=jobs)
    assert _serialize(rows) == GOLDEN.read_bytes()


def test_sweep_defaults_match_driver_defaults(server):
    """An empty params dict is valid and fills in the driver defaults."""
    code, payload = server.client.sweep("fig6sim", {"n": 16, "tile": 4},
                                        jobs=1)
    assert code == 200 and payload["status"] == "done"
    # Default algorithms x default layouts = 3 x 6 rows.
    assert len(payload["rows"]) == 18


# -- coalescing --------------------------------------------------------


def test_concurrent_identical_requests_coalesce(server):
    """Two clients, one execution: same job id, same rows, and exactly
    one ``serve.jobs.executed`` increment between the two requests."""
    params = dict(GOLDEN_PARAMS, n=32)  # fresh key for this test
    _, before = server.client.metrics()

    results = []

    def post():
        results.append(server.client.sweep("fig6sim", params, jobs=1))

    threads = [threading.Thread(target=post) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    (c1, p1), (c2, p2) = results
    assert c1 == 200 and c2 == 200
    assert p1["status"] == p2["status"] == "done"
    assert p1["job_id"] == p2["job_id"]
    assert p1["rows"] == p2["rows"]

    _, after = server.client.metrics()
    executed = (after["metrics"]["counters"]["serve.jobs.executed"]
                - before["metrics"]["counters"].get("serve.jobs.executed", 0))
    coalesced = (after["metrics"]["counters"].get("serve.coalesced", 0)
                 - before["metrics"]["counters"].get("serve.coalesced", 0))
    assert executed == 1
    assert coalesced >= 1


def test_repeat_request_reuses_finished_job(server):
    """A later identical request answers from the finished job: no new
    execution, coalesced counter still increments."""
    params = dict(GOLDEN_PARAMS, n=24)
    rows_first = server.client.rows("fig6sim", params, jobs=1)
    _, before = server.client.metrics()
    rows_again = server.client.rows("fig6sim", params, jobs=1)
    _, after = server.client.metrics()
    assert rows_again == rows_first
    assert (after["metrics"]["counters"]["serve.jobs.executed"]
            == before["metrics"]["counters"]["serve.jobs.executed"])
    assert (after["metrics"]["counters"]["serve.coalesced"]
            > before["metrics"]["counters"].get("serve.coalesced", 0))


# -- error surface -----------------------------------------------------


def test_invalid_json_body_is_400(server):
    import urllib.error
    import urllib.request

    req = urllib.request.Request(
        f"{server.client.base_url}/v1/sweep",
        data=b"{not json",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(req, timeout=30)
    assert exc_info.value.code == 400
    body = json.loads(exc_info.value.read())
    assert "not valid JSON" in body["error"]


def test_unknown_figure_is_400(server):
    code, payload = server.client.sweep("fig99", {}, jobs=1)
    assert code == 400
    assert "unknown figure" in payload["error"]
    # 'fault' is hidden while REPRO_SERVE_TEST_HOOKS is off.
    code, payload = server.client.sweep("fault", {"sentinel_dir": "/x"})
    assert code == 400
    assert "unknown figure" in payload["error"]


@pytest.mark.parametrize(
    "params, fragment",
    [
        ({"n": -1}, "'n'"),
        ({"bogus": 1}, "unknown param"),
        ({"algorithms": []}, "'algorithms'"),
        ({"machine": "cray"}, "unknown machine"),
        ({"algorithms": ["nope"]}, "unknown algorithms ['nope']"),
        ({"layouts": ["QQ"]}, "unknown layouts ['QQ']"),
        ({"layouts": ["LR"]}, "unknown layouts ['LR']"),
    ],
)
def test_bad_params_are_400(server, params, fragment):
    code, payload = server.client.sweep("fig6sim", params, jobs=1)
    assert code == 400
    assert fragment in payload["error"]


def test_unknown_job_is_404(server):
    code, payload = server.client.job("doesnotexist0000")
    assert code == 404
    assert "no such job" in payload["error"]


def test_unknown_route_is_404(server):
    code, payload = server.client.get("/v1/nope")
    assert code == 404


# -- async submission --------------------------------------------------


def test_nowait_submission_and_polling(server):
    """``wait: false`` returns 202 immediately; the job is pollable to
    completion through ``GET /v1/jobs/<id>``."""
    params = dict(GOLDEN_PARAMS, n=40)
    code, payload = server.client.sweep("fig6sim", params, jobs=1, wait=False)
    assert code in (200, 202)  # 200 iff it finished before we asked
    final = server.client.wait_for(payload["job_id"], timeout=120)
    assert final["status"] == "done"
    assert _serialize(final["rows"]) == _serialize(
        server.client.rows("fig6sim", params, jobs=1)
    )


def test_job_table_lists_jobs(server):
    code, payload = server.client.jobs()
    assert code == 200
    assert payload["jobs"], "expected earlier tests' jobs in the table"
    for job in payload["jobs"]:
        assert {"job_id", "status", "figure"} <= set(job)
        assert "rows" not in job  # table view is status-only


def test_metrics_exposes_service_state(server):
    code, payload = server.client.metrics()
    assert code == 200
    counters = payload["metrics"]["counters"]
    assert counters["serve.requests"] > 0
    assert counters["serve.sweep.rows"] > 0
    assert "serve.request_seconds" in payload["metrics"]["histograms"]
    assert payload["jobs"]["total"] == payload["jobs"]["done"] + \
        payload["jobs"]["failed"] + payload["jobs"]["queued"] + \
        payload["jobs"]["running"]
    assert set(payload["store"]) >= {"profile_hits", "profile_misses"}


# -- fault injection ---------------------------------------------------


def _corrupt_fault_artifact(cache_root: Path) -> Path:
    """Pre-corrupt the reuse profile the fault figure's points read,
    exactly as tests/test_store_concurrency.py does."""
    from repro.memsim.machine import scaled
    from repro.memsim.store import TraceStore, _multiply_fields, _profile_key

    store = TraceStore(root=cache_root)
    fields = _multiply_fields("standard", "LZ", 16, 8, "accumulate", None)
    path = store._path(_profile_key(fields, scaled(8)))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"PK\x03\x04 garbage that will not load as a profile")
    return path


def test_sigkilled_worker_is_retried_and_store_survives(tmp_path):
    """SIGKILL a pool worker mid-sweep: the job retries on a fresh pool
    and finishes; a corrupted shared-store artifact is rebuilt cleanly.

    The ``fault`` figure (enabled by REPRO_SERVE_TEST_HOOKS) plants a
    point that SIGKILLs its own worker process on first execution —
    indistinguishable from an OOM kill — while its sibling points read
    the shared trace store through a profile this test corrupted up
    front.
    """
    from repro.memsim.machine import scaled
    from repro.memsim.multiconfig import ReuseProfile
    from repro.memsim.store import TraceStore, cached_multiply_stats

    srv = ServerUnderTest(tmp_path, extra_env={"REPRO_SERVE_TEST_HOOKS": "1"})
    try:
        artifact = _corrupt_fault_artifact(tmp_path / "cache")
        sentinel_dir = tmp_path / "sentinel"
        code, payload = srv.client.sweep(
            "fault",
            {"sentinel_dir": str(sentinel_dir), "points": 3,
             "kill_index": 0},
            jobs=2,
            timeout_s=300,
        )
        assert code == 200, payload
        assert payload["status"] == "done", payload
        # The first attempt died with the worker; at least one retry ran.
        assert payload["attempts"] >= 2
        assert (sentinel_dir / "killed").exists()
        _, metrics = srv.client.metrics()
        assert metrics["metrics"]["counters"]["serve.jobs.retried"] >= 1

        # Rows are correct: every point computed the same deterministic
        # stats an isolated in-process store produces.
        expected = cached_multiply_stats(
            "standard", "LZ", 16, 8, scaled(8),
            store=TraceStore(root=tmp_path / "reference"),
        )
        assert len(payload["rows"]) == 3
        for row in payload["rows"]:
            assert row["cycles"] == expected.cycles

        # The corrupted profile was rebuilt into one that loads.
        with open(artifact, "rb") as fh:
            profile = ReuseProfile.load(fh)
        assert profile.accesses == expected.accesses

        # The service is still healthy and serves real figures.
        rows = srv.client.rows("fig6sim", GOLDEN_PARAMS, jobs=2)
        assert _serialize(rows) == GOLDEN.read_bytes()
    finally:
        srv.kill()


def test_retry_budget_exhaustion_fails_the_job(tmp_path):
    """A worker that dies on *every* attempt fails the job (no hang) and
    reports the retry exhaustion; the service itself stays up."""
    srv = ServerUnderTest(
        tmp_path,
        extra_env={
            "REPRO_SERVE_TEST_HOOKS": "1",
            "REPRO_SERVE_MAX_RETRIES": "1",
        },
    )
    try:
        # A sentinel dir that can never be created: the kill point
        # cannot write its marker, so every attempt kills its worker.
        sentinel_dir = tmp_path / "blocked"
        sentinel_dir.write_text("a file, not a directory")
        code, payload = srv.client.sweep(
            "fault",
            {"sentinel_dir": str(sentinel_dir / "sub"), "points": 2,
             "kill_index": 0},
            jobs=2,
            timeout_s=300,
        )
        assert code == 200
        assert payload["status"] == "failed"
        assert "retries exhausted" in payload["error"]
        # Still alive and serving.
        code, _ = srv.client.healthz()
        assert code == 200
    finally:
        srv.kill()


# -- client disconnects ------------------------------------------------


def test_client_disconnect_leaves_no_orphaned_job(server):
    """A client that posts a blocking sweep and vanishes: the job still
    runs to completion and nothing is left queued or running."""
    params = dict(GOLDEN_PARAMS, n=56)
    body = json.dumps(
        {"figure": "fig6sim", "params": params, "jobs": 1, "wait": True}
    ).encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
        s.sendall(
            b"POST /v1/sweep HTTP/1.1\r\n"
            b"Host: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        # Vanish without reading the response.

    # The job the disconnected client submitted still completes...
    from repro.serve.protocol import parse_request

    job_id = parse_request(
        {"figure": "fig6sim", "params": params, "jobs": 1}
    ).job_id()
    deadline = time.time() + 30
    while server.client.job(job_id)[0] == 404:
        # The handler thread may still be parsing the request.
        assert time.time() < deadline, "disconnected request never registered"
        time.sleep(0.1)
    final = server.client.wait_for(job_id, timeout=120)
    assert final["status"] == "done"

    # ...and the job table holds no orphaned queued/running entries.
    deadline = time.time() + 30
    while True:
        _, payload = server.client.jobs()
        pending = [j for j in payload["jobs"]
                   if j["status"] in ("queued", "running")]
        if not pending:
            break
        assert time.time() < deadline, f"orphaned jobs: {pending}"
        time.sleep(0.2)
    code, _ = server.client.healthz()
    assert code == 200


# -- process hygiene ---------------------------------------------------


def _children(pid: int) -> list[int]:
    """Pids of the live processes whose parent is ``pid``."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
            if int(ppid) == pid and state != "Z":
                kids.append(int(stat.parent.name))
    return kids


def _survivors(pids: list[int], timeout: float) -> list[int]:
    """The pids still running after up to ``timeout`` seconds; a zombie
    awaiting its reaper has exited and counts as gone."""
    deadline = time.monotonic() + timeout
    while True:
        alive = []
        for pid in pids:
            with contextlib.suppress(OSError):
                stat = Path(f"/proc/{pid}/stat").read_text()
                if stat.rsplit(")", 1)[1].split()[0] != "Z":
                    alive.append(pid)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def test_pool_workers_stop_on_sigterm_and_teardown(tmp_path):
    """A pool worker exits on SIGTERM instead of running the server's
    shutdown handler, and ``kill()`` leaves no worker behind."""
    srv = ServerUnderTest(tmp_path)
    try:
        srv.client.rows("fig6sim", GOLDEN_PARAMS, jobs=2)
        workers = _children(srv.proc.pid)
        assert workers, "a jobs=2 sweep started no pool worker"
        os.kill(workers[0], signal.SIGTERM)
        assert not _survivors(workers[:1], timeout=10.0), (
            "a pool worker ignored SIGTERM"
        )
    finally:
        srv.kill()
    assert not _survivors(workers, timeout=10.0)


def test_pool_workers_exit_when_server_is_sigkilled(tmp_path):
    """SIGKILL of the server alone runs no handler and leaves its pool
    workers reparented; each worker's parent watch must still end it
    within seconds, with no process-group kill."""
    srv = ServerUnderTest(tmp_path)
    try:
        srv.client.rows("fig6sim", GOLDEN_PARAMS, jobs=2)
        workers = _children(srv.proc.pid)
        assert workers, "a jobs=2 sweep started no pool worker"
        os.kill(srv.proc.pid, signal.SIGKILL)
        srv.proc.wait(timeout=10)
        assert not _survivors(workers, timeout=10.0), (
            "pool workers outlived their SIGKILLed server"
        )
    finally:
        srv.kill()
