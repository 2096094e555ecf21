"""Child process of one memsim or dgemm benchmark session.

Run as ``python worker.py SPEC_JSON``.  The worker imports the program,
prints ``{"ready": true}`` (the runner times set-up up to that line),
then answers one JSON command per stdin line with one JSON line:

* ``{"cmd": "cold"}`` — the cold operation, timed and checked;
* ``{"cmd": "warm", "ops": m}`` — ``m`` warm operations, rounded up to
  whole rounds;
* ``{"cmd": "exit"}`` — write the spans (traced runs), report peak RSS
  and exit.

Every timing is reported twice: raw, and at the reference host speed
(:mod:`hostspeed`), probed in this process right before and after it
and, for cold operations of untraced sessions, every ``SAMPLE_S``
seconds inside it.

In a traced session warm rounds (one operation, or one pass over the
dgemm grid) alternate between traced and untraced, so the ratio of
their medians is the tracing overhead.

``SPEC_JSON`` with ``"kind": "rows"`` instead prints the in-process
driver rows of each listed request (the served-rows check).
"""

from __future__ import annotations

import importlib
import json
import resource
import sys

import numpy as np

from hostspeed import SAMPLE_S, HostSpeed
from repro.clock import raw_perf_counter
from tracing import DGEMM_LAYERS, DGEMM_STREAMS, MEMSIM_LAYERS, Tracer
from workloads import dgemm_grid, driver_rows, row_digest


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _store_counter(suffix: str) -> int:
    from repro.memsim.store import default_store

    return sum(v for k, v in default_store().counters().items()
               if k.endswith(suffix))


class MemsimOps:
    """Cold and warm operations of a figure-driver workload."""

    #: Warm operations per traced or untraced round.
    round_len = 1

    def __init__(self, spec: dict, tracer: Tracer) -> None:
        # Importing the drivers is set-up, not part of the cold job.
        import repro.analysis.experiments  # noqa: F401
        import repro.serve.protocol  # noqa: F401

        self.figure = spec["figure"]
        self.params = spec["params"]
        self.expected = spec["expected"]
        self.tracer = tracer
        if spec["trace"]:
            tracer.install(MEMSIM_LAYERS)

    def once(self) -> bool:
        rows = self.tracer.call("job", driver_rows, (self.figure, self.params), {})
        return row_digest(rows) == self.expected

    def cold(self, speed: HostSpeed, sample_s: float | None) -> dict:
        speed.restart()
        with speed.timing(sample_s) as timing:
            ok = self.once()
        return {"cold_s": timing.scaled, "cold_raw_s": timing.raw, "attempted": 1,
                "failed": int(not ok), "store_misses": _store_counter("_misses")}


class DgemmOps:
    """Cold pass and warm multiplies of the dgemm workload."""

    def __init__(self, spec: dict, tracer: Tracer) -> None:
        # The package re-exports the function under the module's name.
        self.dgemm_module = importlib.import_module("repro.algorithms.dgemm")
        n = spec["params"]["n"]
        rng = np.random.default_rng(spec["seed"])
        self.a = rng.standard_normal((n, n))
        self.b = rng.standard_normal((n, n))
        self.ref = self.a @ self.b
        self.grid = dgemm_grid()
        self.round_len = len(self.grid)
        # Each session visits the grid in its own seeded orders.
        self.order = np.random.default_rng([spec["seed"], spec["session"]])
        self.pending: list[tuple[str, str]] = []
        self.tracer = tracer
        self.kernel = "blas"
        if spec["trace"]:
            tracer.install(DGEMM_LAYERS)
            tracer.install(DGEMM_STREAMS, fold=True)
            self.kernel = tracer.leaf_kernel()

    def multiply(self, algorithm: str, layout: str) -> bool:
        kwargs = {"algorithm": algorithm, "layout": layout,
                  "kernel": self.kernel}
        res = self.tracer.call("job", self.dgemm_module.dgemm, (self.a, self.b), kwargs)
        return bool(np.allclose(res.c, self.ref))

    def cold(self, speed: HostSpeed, sample_s: float | None) -> dict:
        scaled = raw = 0.0
        failed = 0
        speed.restart()
        for algorithm, layout in self.grid:
            with speed.timing(sample_s) as timing:
                ok = self.multiply(algorithm, layout)
            scaled += timing.scaled
            raw += timing.raw
            failed += not ok
        return {"cold_s": scaled, "cold_raw_s": raw, "attempted": len(self.grid),
                "failed": failed}

    def once(self) -> bool:
        # Seeded rounds: every round visits the whole grid once.
        if not self.pending:
            self.pending = [self.grid[i]
                            for i in self.order.permutation(len(self.grid))]
        return self.multiply(*self.pending.pop())


def warm(ops, speed: HostSpeed, count: int, trace: bool) -> dict:
    """``count`` warm operations, rounded up to whole rounds; traced runs
    alternate traced and untraced rounds."""
    samples: list[float] = []
    raw: list[float] = []
    untraced: list[float] = []
    attempted = failed = 0
    memsim = isinstance(ops, MemsimOps)
    hits_before = _store_counter("_hits") if memsim else 0
    start = raw_perf_counter()
    speed.restart()
    while attempted < count or attempted % ops.round_len:
        traced = not trace or (attempted // ops.round_len) % 2 == 0
        ops.tracer.phase = "warm" if trace and traced else None
        with speed.timing() as timing:
            ok = ops.once()
        ops.tracer.phase = None
        if traced:
            samples.append(timing.scaled)
            raw.append(timing.raw)
        else:
            untraced.append(timing.scaled)
        attempted += 1
        failed += not ok
    wall = raw_perf_counter() - start
    return {"samples": samples, "raw": raw, "untraced": untraced, "wall_s": wall,
            "attempted": attempted, "failed": failed,
            "store_hits": _store_counter("_hits") - hits_before if memsim else 0}


def main(spec: dict) -> int:
    if spec["kind"] == "rows":
        _reply({"rows": [driver_rows(r["figure"], r["params"])
                         for r in spec["requests"]]})
        return 0
    trace = spec["trace"]
    tracer = Tracer()
    ops = (MemsimOps if spec["kind"] == "memsim" else DgemmOps)(spec, tracer)
    _reply({"ready": True})
    speed = HostSpeed()
    # Probes inside a traced operation would land in its spans.
    sample_s = None if trace else SAMPLE_S
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "cold":
            tracer.phase = "cold" if trace else None
            result = ops.cold(speed, sample_s)
            tracer.phase = None
            _reply(result)
        elif cmd["cmd"] == "warm":
            _reply(warm(ops, speed, cmd["ops"], trace))
        elif cmd["cmd"] == "exit":
            if trace:
                tracer.spans.export_jsonl(spec["spans"])
            # The probe's buffer stays resident from before the cold
            # operation to exit, so it adds exactly its size to the peak.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _reply({"rss_mb": peak_kb / 1024.0 - speed.resident_mb})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
