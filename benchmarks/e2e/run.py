"""End-to-end benchmark of the reproduction: four workloads, each timed
cold and warm from fresh processes, with a traced mode for per-layer
numbers.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload fig6sim_dm --seed 1 \\
        --seconds 28 --trace 0 [--out DIR]

One run repeats the workload's session until ``--seconds`` are spent.
Each session is a fresh child process (or service) with its own empty
trace store and obs directory, ``REPRO_PERF_HISTORY=0``, ``REPRO_JOBS=1``
and single-threaded BLAS; it pays set-up, one cold operation, then the
workload's fixed number of warm operations.  A session's processes
share one CPU, the sessions of a run taking the CPUs in turn, and every
time is reported at the reference host speed probed on that CPU
(:mod:`hostspeed`).  Every output is checked (row digests,
``np.allclose`` products, served rows against the in-process driver).
The last stdout line is one JSON object: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``REPRO_*`` variables set by the caller (for example
``REPRO_MULTICONFIG=0``) reach the children.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from hostspeed import HostSpeed, Timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Sessions per run, at least, however slow the host: with every
#: workload's ``warm_ops`` that is at least 100 warm samples, so the p90
#: has ten beyond it.
MIN_SESSIONS = 3
#: Every this-many-th new sweep body is re-checked against the driver.
CHECK_EVERY = 50
#: Children still running this long after the run started are killed.
RUN_TIMEOUT_S = 170.0

#: per-layer metric -> (phase, span name, statistic), averaged per
#: operation of that phase.
SPAN_METRICS: dict[str, tuple[str, str, str]] = {
    **{f"engines.{s}": ("cold", "engines", s)
       for s in ("calls", "self_s", "keys")},
    **{f"multiconfig.build.{s}": ("cold", "multiconfig.build", s)
       for s in ("calls", "self_s", "accesses")},
    **{f"multiconfig.query.{s}": ("cold", "multiconfig.query", s)
       for s in ("calls", "self_s")},
    **{f"hierarchy.{s}": ("cold", "hierarchy", s)
       for s in ("calls", "self_s", "accesses")},
    **{f"synthesis.{s}": ("cold", "synthesis", s)
       for s in ("calls", "self_s", "events")},
    **{f"expand.{s}": ("cold", "expand", s)
       for s in ("calls", "self_s", "accesses")},
    **{f"store.{kind}.{s}": ("cold", f"store.{kind}", s)
       for kind in ("trace", "profile") for s in ("calls", "self_s")},
    **{f"store.stats.{s}": ("warm", "store.stats", s)
       for s in ("calls", "self_s")},
    **{f"sweep.{s}": ("warm", "sweep", s)
       for s in ("calls", "self_s", "points")},
    "experiments.merge.self_s": ("warm", "experiments.merge", "self_s"),
    "dgemm.self_s": ("warm", "dgemm", "self_s"),
    **{f"convert.{s}": ("warm", "convert", s)
       for s in ("calls", "self_s", "bytes")},
    **{f"tiling.{s}": ("warm", "tiling", s) for s in ("calls", "self_s")},
    "recursion.self_s": ("warm", "recursion", "self_s"),
    **{f"stream.{s}": ("warm", "stream", s) for s in ("calls", "self_s")},
    **{f"leaf.{s}": ("warm", "leaf", s)
       for s in ("calls", "self_s", "flops")},
    "protocol.parse.self_s": ("warm", "protocol.parse", "self_s"),
    "protocol.build_sweep.self_s": ("warm", "protocol.build_sweep", "self_s"),
    "serve.job_payload.self_s": ("warm", "serve.job_payload", "self_s"),
}

#: Service counters reported per warm request (from ``/metrics``).
SERVE_COUNTERS = ("serve.coalesced", "serve.jobs.executed", "serve.sweep.rows")

#: Spans whose self time is whatever their wrapped children leave over
#: (the operation itself, the sweep loop, the dgemm front end, the
#: recursion's own bookkeeping); ``layers.coverage`` leaves them out.
CATCH_ALL = ("job", "sweep", "dgemm", "recursion")

#: Span attributes summed per layer besides time.
_QUANTITIES = ("keys", "accesses", "events", "points", "bytes", "flops")


def clock() -> float:
    from repro.clock import raw_perf_counter

    return raw_perf_counter()


def catalogue() -> dict:
    """The metric catalogue and run length of ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` unless at least ten
    samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def sample_s(trace: bool) -> float | None:
    """Seconds between probes inside a long timed interval; none in
    traced runs, where the probes would land in the spans."""
    from hostspeed import SAMPLE_S

    return None if trace else SAMPLE_S


@contextmanager
def pinned(cpu: int):
    """Keep this process, and the children it starts, on ``cpu``: the
    host-speed probes then measure the CPU the session's work runs on,
    and the service and its client hand requests over without waking
    the other CPU."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


# -- child processes ----------------------------------------------------

def child_env(store: Path, obs_dir: Path) -> dict[str, str]:
    """Environment of one session's children, built from scratch: the
    caller's ``REPRO_*`` knobs, then the benchmark's own settings."""
    from repro import knobs

    env = knobs.environ_snapshot()
    env.update({
        "PYTHONPATH": f"{SRC}:{HERE}",
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_TRACE_CACHE_DIR": str(store),
        "REPRO_OBS_DIR": str(obs_dir),
        "REPRO_PERF_HISTORY": "0",
        "REPRO_JOBS": "1",
    })
    return env


class Child:
    """A line-protocol child process, killed at the run's deadline."""

    def __init__(self, argv: list[str], env: dict, log: Path, kill_at: float):
        self.argv = argv
        self.log_path = log
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log, text=True, bufsize=1,
        )
        self._timer = threading.Timer(max(1.0, kill_at - clock()), self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(
                f"{Path(self.argv[1]).name} exited with {self.proc.returncode}:\n"
                + self.log_path.read_text()[-4000:]
            )
        return line

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def ask(self, cmd: dict) -> dict:
        self.send(json.dumps(cmd))
        return json.loads(self.readline())

    def wait(self, timeout: float) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def close(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        self._log.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- sessions -------------------------------------------------------------

def _dir_usage(root: Path) -> dict:
    """Files and bytes under ``root`` (what a session's store wrote)."""
    files = size = 0
    for path in root.rglob("*"):
        if path.is_file():
            files += 1
            size += path.stat().st_size
    return {"files": files, "bytes": size}


@dataclass
class Session:
    """What one fresh-process session measured.  Times are at the
    reference host speed; the ``raw`` ones as the clock read them."""

    setup_s: float
    setup_raw_s: float
    cold_s: float
    cold_raw_s: float
    warm: list[float]
    warm_raw: list[float]
    warm_wall_s: float
    warm_ops: int
    rss_mb: float
    attempted: int
    failed: int
    untraced: list[float] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)
    #: Per-layer values measured outside the spans, already summed
    #: over this session's operations of their phase.
    extra: dict[str, float] = field(default_factory=dict)


def worker_session(spec: dict, seed: int, index: int, trace: bool, sdir: Path,
                   kill_at: float, speed: HostSpeed, expected: str | None) -> Session:
    """Session ``index`` of a memsim or dgemm run, in a fresh ``worker.py``."""
    store = sdir / "store"
    wspec = {
        "kind": spec["kind"], "seed": seed, "session": index, "trace": trace,
        "figure": spec.get("figure"), "params": spec.get("params"),
        "expected": expected, "spans": str(sdir / "spans.jsonl"),
    }
    argv = [sys.executable, str(HERE / "worker.py"), json.dumps(wspec)]
    speed.restart()
    with ExitStack() as stack:
        with speed.timing(sample_s(trace)) as setup:
            child = stack.enter_context(Child(
                argv, child_env(store, sdir / "obs"), sdir / "worker.log", kill_at))
            json.loads(child.readline())
        cold = child.ask({"cmd": "cold"})
        warm = child.ask({"cmd": "warm", "ops": spec["warm_ops"]})
        rss = child.ask({"cmd": "exit"})["rss_mb"]
        child.wait(30)
    usage = _dir_usage(store)
    extra = {
        "store.misses": cold.get("store_misses", 0),
        "store.bytes_written": usage["bytes"],
        "store.files_written": usage["files"],
        "store.hits": warm["store_hits"],
    }
    return Session(
        setup_s=setup.scaled, setup_raw_s=setup.raw, cold_s=cold["cold_s"],
        cold_raw_s=cold["cold_raw_s"], warm=warm["samples"],
        warm_raw=warm["raw"], warm_wall_s=warm["wall_s"],
        warm_ops=warm["attempted"], rss_mb=rss,
        attempted=cold["attempted"] + warm["attempted"],
        failed=cold["failed"] + warm["failed"], untraced=warm["untraced"],
        spans=[sdir / "spans.jsonl"] if trace else [], extra=extra,
    )


class ServeClient:
    """An HTTP client that counts the response bytes of every exchange.

    Like :class:`repro.serve.client.ServeClient` it opens one connection
    per request: the service writes headers and body in separate
    segments, so on a kept-alive connection every response would wait
    out the peer's delayed ACK (about 40 ms) and hide the service's own
    time.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.response_bytes = 0

    def exchange(self, method: str, path: str,
                 body: bytes | None = None) -> tuple[int, dict]:
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        self.response_bytes += len(data)
        return resp.status, json.loads(data)


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _wait_healthy(client: ServeClient, kill_at: float) -> None:
    while True:
        try:
            if client.exchange("GET", "/healthz")[0] == 200:
                return
        except OSError:
            pass
        if clock() > kill_at:
            raise RuntimeError("service never became healthy")
        time.sleep(0.01)


def serve_session(spec: dict, seed: int, trace: bool, sdir: Path,
                  kill_at: float, speed: HostSpeed) -> Session:
    """One ``serve_mixed`` session against a fresh service.  The client
    runs in this process, on the service's CPU, so ``speed`` probes
    around and inside requests measure the CPU that served them."""
    from workloads import row_digest, serve_mix

    store = sdir / "store"
    spans = sdir / "spans.jsonl"
    serve_args = ["--port", "0", "--jobs", "1"]
    if trace:
        argv = [sys.executable, str(HERE / "serve_launcher.py"), str(spans),
                *serve_args]
    else:
        argv = [sys.executable, "-m", "repro", "serve", *serve_args]
    env = child_env(store, sdir / "obs")
    attempted = failed = 0
    #: Requests re-checked against the in-process driver after the loop.
    checks: list[dict] = list(spec["grids"])
    speed.restart()
    with ExitStack() as stack:
        with speed.timing(sample_s(trace)) as setup:
            server = stack.enter_context(Child(argv, env, sdir / "serve.log", kill_at))
            # "serve: listening on http://HOST:PORT (pid PID)"
            words = server.readline().split()
            host, port = words[3].removeprefix("http://").rsplit(":", 1)
            pid = int(words[5].rstrip(")"))
            client = ServeClient(host, int(port))
            _wait_healthy(client, kill_at)

        def phase(name: str) -> None:
            if trace:
                server.send(name)
                server.readline()

        bodies: list[bytes] = []
        ids: list[str] = []
        digests: dict[str, str] = {}

        def request(method: str, path: str, body: bytes | None = None,
                    sample: float | None = None) -> tuple[int, dict, Timing]:
            with speed.timing(sample) as timing:
                status, payload = client.exchange(method, path, body)
            return status, payload, timing

        def sweep(body: bytes, sample: float | None = None) -> Timing:
            nonlocal failed
            status, payload, timing = request("POST", "/v1/sweep", body, sample)
            rows = payload.get("rows")
            if status != 200 or payload.get("status") != "done" or not rows:
                failed += 1
                return timing
            digest = row_digest(rows)
            if digests.setdefault(payload["job_id"], digest) != digest:
                failed += 1
            if body not in bodies:
                bodies.append(body)
                ids.append(payload["job_id"])
            return timing

        phase("cold")
        cold_s = cold_raw = 0.0
        speed.restart()
        for grid in spec["grids"]:
            timing = sweep(json.dumps(grid).encode(), sample_s(trace))
            cold_s += timing.scaled
            cold_raw += timing.raw
        attempted += len(spec["grids"])
        phase("off")
        store_usage = _dir_usage(store)
        _, before = client.exchange("GET", "/metrics")
        bytes_before = client.response_bytes

        samples: list[float] = []
        raw: list[float] = []
        untraced: list[float] = []
        mix = serve_mix(spec["grids"], seed)
        new_sweeps = 0
        ops = 0
        start = clock()
        speed.restart()
        while ops < spec["warm_ops"]:
            traced = not trace or ops % 2 == 0
            phase("warm" if traced else "off")
            kind, arg = next(mix)
            if kind == "sweep":
                timing = sweep(json.dumps(arg).encode())
                if new_sweeps % CHECK_EVERY == 0:
                    checks.append(arg)
                new_sweeps += 1
            elif kind == "repeat":
                timing = sweep(bodies[int(arg * len(bodies))])
            elif kind == "job":
                job_id = ids[int(arg * len(ids))]
                status, payload, timing = request("GET", f"/v1/jobs/{job_id}")
                if status != 200 or row_digest(payload.get("rows") or []) \
                        != digests[job_id]:
                    failed += 1
            else:
                status, _, timing = request("POST", "/v1/sweep", arg)
                failed += status != 400
            if traced:
                samples.append(timing.scaled)
                raw.append(timing.raw)
            else:
                untraced.append(timing.scaled)
            ops += 1
        wall = clock() - start
        attempted += ops
        phase("off")
        response_bytes = client.response_bytes - bytes_before
        _, after = client.exchange("GET", "/metrics")
        served = [
            client.exchange("POST", "/v1/sweep", json.dumps(r).encode())[1]
            .get("rows")
            for r in checks
        ]
        rss = _vm_hwm_mb(pid)
        client.exchange("POST", "/v1/shutdown", b"{}")
        server.wait(60)

    rows_spec = {"kind": "rows", "requests": checks}
    argv = [sys.executable, str(HERE / "worker.py"), json.dumps(rows_spec)]
    with Child(argv, env, sdir / "rows.log", kill_at) as checker:
        driver = json.loads(checker.readline())["rows"]
    attempted += len(checks)
    failed += sum(json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True)
                  for got, want in zip(served, driver))

    counters = {name: after["metrics"]["counters"].get(name, 0)
                - before["metrics"]["counters"].get(name, 0)
                for name in SERVE_COUNTERS}
    hist = after["metrics"]["histograms"].get("serve.request_seconds", {})
    extra = {
        "store.misses": sum(v for k, v in before["store"].items()
                            if k.endswith("_misses")),
        "store.bytes_written": store_usage["bytes"],
        "store.files_written": store_usage["files"],
        "store.hits": sum(after["store"][k] - before["store"][k]
                          for k in after["store"] if k.endswith("_hits")),
        "http.response_bytes": response_bytes,
        "serve.handler_p50_s": hist.get("p50") or 0.0,
        **counters,
    }
    return Session(
        setup_s=setup.scaled, setup_raw_s=setup.raw, cold_s=cold_s,
        cold_raw_s=cold_raw, warm=samples, warm_raw=raw, warm_wall_s=wall,
        warm_ops=ops, rss_mb=rss, attempted=attempted, failed=failed,
        untraced=untraced, spans=[spans] if trace else [], extra=extra,
    )


# -- metrics --------------------------------------------------------------

def layer_stats(paths: list[Path], phase: str) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and summed quantities of every
    span of ``phase`` in the given JSONL files."""
    from repro.obs.report import read_spans_jsonl, top_spans

    out: dict[str, dict[str, float]] = {}
    for path in paths:
        records = [r for r in read_spans_jsonl(path)[0]
                   if r["attrs"].get("phase") == phase]
        for name, _, _, self_s in top_spans(records):
            entry = out.setdefault(name, {})
            entry["self_s"] = entry.get("self_s", 0.0) + self_s
        for rec in records:
            entry = out[rec["name"]]
            attrs = rec["attrs"]
            entry["calls"] = entry.get("calls", 0) + attrs.get("calls", 1)
            for key in _QUANTITIES:
                if key in attrs:
                    entry[key] = entry.get(key, 0) + attrs[key]
    return out


def end_to_end(sessions: list[Session]) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metric values and the sample count behind each: set-up
    and cold times are medians over the run's sessions, the warm latency
    the median and p90 of every session's warm samples."""
    warm = [w for s in sessions for w in s.warm]
    p90 = tail_percentile(warm, 90)
    if p90 is None:
        raise RuntimeError(f"{len(warm)} warm samples are too few for the p90")
    values = {
        "setup_s": statistics.median(s.setup_s for s in sessions),
        "cold_s": statistics.median(s.cold_s for s in sessions),
        "warm_ms": statistics.median(warm) * 1e3,
        "warm_p90_ms": p90 * 1e3,
        "peak_rss_mb": max(s.rss_mb for s in sessions),
    }
    counts = {"setup_s": len(sessions), "cold_s": len(sessions),
              "warm_ms": len(warm), "warm_p90_ms": len(warm),
              "peak_rss_mb": len(sessions)}
    return values, counts


def raw_log(sessions: list[Session]) -> list[tuple[str, float | None, str, int]]:
    """The timings as the clock read them, and warm throughput, for the
    log only: they follow the host's speed (see :mod:`hostspeed`)."""
    warm = [w for s in sessions for w in s.warm_raw]
    ops = sum(s.warm_ops for s in sessions)
    return [
        ("setup_raw_s", statistics.median(s.setup_raw_s for s in sessions), "s",
         len(sessions)),
        ("cold_raw_s", statistics.median(s.cold_raw_s for s in sessions), "s",
         len(sessions)),
        ("warm_raw_ms", statistics.median(warm) * 1e3, "ms", len(warm)),
        ("warm_ops_per_s", ops / sum(s.warm_wall_s for s in sessions), "1/s", ops),
    ]


def per_layer(sessions: list[Session]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metric values (per operation of their phase) and the
    operation count behind each."""
    paths = [p for s in sessions for p in s.spans]
    stats = {phase: layer_stats(paths, phase) for phase in ("cold", "warm")}
    per_phase = {"cold": len(sessions),
                 "warm": sum(len(s.warm) for s in sessions)}
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    for metric, (phase, name, stat) in SPAN_METRICS.items():
        values[metric] = stats[phase].get(name, {}).get(stat, 0) / per_phase[phase]
        counts[metric] = per_phase[phase]
    leaf = stats["warm"].get("leaf", {})
    values["leaf.gflops"] = (leaf["flops"] / leaf["self_s"] / 1e9
                             if leaf.get("self_s") else 0.0)
    counts["leaf.gflops"] = per_phase["warm"]
    warm_ops = sum(s.warm_ops for s in sessions)
    for metric, phase, total in (
        ("store.misses", "cold", per_phase["cold"]),
        ("store.bytes_written", "cold", per_phase["cold"]),
        ("store.files_written", "cold", per_phase["cold"]),
        ("store.hits", "warm", warm_ops),
        ("http.response_bytes", "warm", warm_ops),
        *((name, "warm", warm_ops) for name in SERVE_COUNTERS),
    ):
        values[metric] = sum(s.extra.get(metric, 0) for s in sessions) / total
        counts[metric] = total
    values["serve.handler_p50_s"] = statistics.median(
        s.extra.get("serve.handler_p50_s", 0.0) for s in sessions
    )
    counts["serve.handler_p50_s"] = len(sessions)
    untraced = [u for s in sessions for u in s.untraced]
    traced = [w for s in sessions for w in s.warm]
    values["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    counts["trace.overhead"] = len(traced) + len(untraced)
    covered = sum(entry["self_s"] for name, entry in stats["cold"].items()
                  if name not in CATCH_ALL)
    values["layers.coverage"] = covered / sum(s.cold_raw_s for s in sessions)
    counts["layers.coverage"] = len(sessions)
    return values, counts


# -- one run --------------------------------------------------------------

def run(name: str, spec: dict, seed: int, seconds: float, trace: bool,
        work: Path, expected: str | None = None
        ) -> tuple[dict, list[tuple[str, float | None, str, int]]]:
    """Run workload ``name`` as configured by ``spec``.

    Returns the result object (metrics with their units) and the log
    table: every metric with its unit and sample count, plus the raw
    timings of an untraced run.
    """
    from hostspeed import HostSpeed

    sessions: list[Session] = []
    start = clock()
    kill_at = start + RUN_TIMEOUT_S
    cpus = sorted(os.sched_getaffinity(0))
    speed = HostSpeed()
    # Another session starts while one more of the mean length so far
    # still ends in time.
    while (len(sessions) < MIN_SESSIONS
           or clock() + (clock() - start) / len(sessions) <= start + seconds):
        i = len(sessions)
        sdir = work / f"session{i}"
        sdir.mkdir(parents=True)
        with pinned(cpus[i % len(cpus)]):
            if spec["kind"] == "serve":
                sessions.append(serve_session(spec, seed * 1000 + i, trace, sdir,
                                              kill_at, speed))
            else:
                sessions.append(worker_session(spec, seed, i, trace, sdir,
                                               kill_at, speed, expected))
    values, counts = (per_layer if trace else end_to_end)(sessions)
    declared = {m["name"]: m["unit"]
                for m in catalogue()["per_layer" if trace else "end_to_end"]}
    if set(values) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(declared))} disagree with "
            f"BENCHMARK.json"
        )
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]}
                    for k in declared},
    }
    table = [(k, values[k], declared[k], counts[k]) for k in declared]
    if not trace:
        table += raw_log(sessions)
    return result, table


def expected_digest(name: str, spec: dict) -> str | None:
    """The committed row digest of a memsim workload's configuration."""
    if spec["kind"] != "memsim":
        return None
    entry = json.loads((HERE / "expected.json").read_text())[name]
    if (entry["figure"], entry["params"]) != (spec["figure"], spec["params"]):
        raise RuntimeError(f"expected.json does not describe {name} as configured")
    return entry["rows_sha256"]


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the result (and spans) here")
    args = parser.parse_args(argv)
    seconds = args.seconds or catalogue()["run_seconds"]
    spec = WORKLOADS[args.workload]
    work = HERE / f".work-{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    try:
        result, table = run(args.workload, spec, args.seed, seconds,
                            bool(args.trace), work,
                            expected_digest(args.workload, spec))
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
            (args.out / f"{stem}.json").write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "seconds": seconds, "trace": args.trace, "result": result},
                indent=2, sort_keys=True,
            ))
            for spans in sorted(work.glob("session*/spans.jsonl")):
                shutil.copy(spans, args.out / f"{stem}.{spans.parent.name}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, value, unit, n in table:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:<14} {metric:<28} {shown:>14} {unit:<8} (n={n})")
    print(f"{args.workload:<14} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program source at {SRC / 'repro'}; run from a "
                 f"checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    sys.exit(main())
