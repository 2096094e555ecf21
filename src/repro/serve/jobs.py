"""Job table and execution engine of the simulation service.

One :class:`JobManager` owns three things:

* **The job table.**  Jobs are keyed by the request's canonical content
  address, so two clients posting the same sweep — byte-different JSON,
  same canonical form — share one :class:`Job`.  A coalesced submit
  never re-executes: a queued/running job gains a waiter, a finished
  job answers from its cached rows (``serve.coalesced`` counts both).
* **The dispatcher thread.**  Exactly one daemon thread consumes the
  job queue and runs sweeps.  This is the service's single-writer
  discipline: the shared :class:`~repro.memsim.store.TraceStore`
  counter merge and the obs collector/registry merge in
  :func:`repro.analysis.parallel.merge_payloads` are not thread-safe,
  and HTTP handler threads must never touch them.  Handlers only read
  job state and block on per-job events.
* **The persistent worker pool.**  Built lazily, reused across jobs
  (that is the "warm" in warm store: workers keep their imports, the
  parent keeps one store), and injected into
  :func:`~repro.analysis.parallel.run_sweep` through its
  ``executor_factory`` hook via a non-closing handle so ``run_sweep``'s
  ``with`` block cannot shut it down.  A request with ``jobs == 1``
  bypasses the pool entirely and runs the exact serial driver path.

Fault tolerance: if a worker dies mid-sweep (OOM kill, segfault) the
pool raises :class:`~concurrent.futures.process.BrokenProcessPool`.
The manager discards the broken pool, builds a fresh one, and re-runs
the whole sweep — points are pure functions of their parameters, so a
re-run is safe, and the content-addressed store turns completed work
into cache hits.  ``REPRO_SERVE_MAX_RETRIES`` bounds the loop.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import knobs, obs
from repro.analysis import parallel
from repro.memsim.store import default_store
from repro.serve.protocol import SweepRequest, build_sweep

__all__ = ["Job", "JobManager"]


def _watch_parent(parent: int) -> None:
    """Exit this worker once its parent is no longer ``parent``."""
    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(1)


def _serve_pool_init(obs_enabled: bool, worker_dir: str | None) -> None:
    """Worker initializer: restore the default signal handlers, start
    the parent watch, import the serve point registry, then defer to
    the sweep pool's own initializer.

    A forked worker inherits the server's SIGTERM/SIGINT handlers, which
    stop a serve loop the worker never runs: the signal would be
    swallowed and the worker outlive the server.  A server killed
    outright (SIGKILL) runs no handler at all and leaves its workers
    blocked on the task queue, reparented; the watch thread sees the
    parent pid change and exits the worker.  Workers resolve point
    functions by name out of
    :data:`repro.analysis.parallel.POINT_FUNCTIONS`; importing
    :mod:`repro.serve.protocol` here registers the service's own points
    (the fault-injection figure) under every start method, not just
    ``fork``.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(
        target=_watch_parent, args=(os.getppid(),),
        name="serve-parent-watch", daemon=True,
    ).start()
    import repro.serve.protocol  # noqa: F401  (registers serve.* points)

    parallel._pool_init(obs_enabled, worker_dir)


class _PoolHandle:
    """A non-closing executor facade for :func:`run_sweep`.

    ``run_sweep`` enters its executor as a context manager and would
    shut the service's shared pool down after one sweep; this handle
    delegates ``submit`` and swallows the context exit.
    """

    def __init__(self, pool: ProcessPoolExecutor) -> None:
        self._pool = pool

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> "Future[Any]":
        return self._pool.submit(fn, *args, **kwargs)

    def __enter__(self) -> "_PoolHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


@dataclass
class Job:
    """One coalesced sweep execution and its lifecycle."""

    id: str
    request: SweepRequest
    status: str = "queued"  # queued | running | done | failed
    rows: Optional[list[dict]] = None
    error: Optional[str] = None
    attempts: int = 0
    coalesced: int = 0
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    def public(self) -> dict:
        """The job's wire form (everything but the rows)."""
        return {
            "job_id": self.id,
            "status": self.status,
            "figure": self.request.figure,
            "jobs": self.request.jobs,
            "attempts": self.attempts,
            "coalesced": self.coalesced,
            "error": self.error,
        }


class JobManager:
    """Job table + dispatcher thread + persistent worker pool."""

    def __init__(self, pool_jobs: int | None = None) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._queue: "queue.Queue[Job | None]" = queue.Queue()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_jobs = pool_jobs
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- submission ----------------------------------------------------

    def submit(self, request: SweepRequest) -> Job:
        """Enqueue a request, coalescing onto any live or finished twin.

        Failed jobs do *not* coalesce — a retry-exhausted sweep would
        otherwise poison its key forever — so resubmitting a failed
        request schedules a fresh execution under the same id.
        """
        with self._lock:
            job = self._jobs.get(request.job_id())
            if job is not None and job.status != "failed":
                job.coalesced += 1
                obs.add("serve.coalesced")
                return job
            job = Job(id=request.job_id(), request=request)
            self._jobs[job.id] = job
            self._queue.put(job)
            obs.add("serve.sweep.submitted")
            obs.gauge("serve.queue_depth", self._queue.qsize())
            return job

    def get(self, job_id: str) -> Job | None:
        """The job with this id, if any."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All jobs, in insertion order."""
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> dict:
        """Aggregate job-table counts for ``/metrics``."""
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for job in self.jobs():
            counts[job.status] += 1
        counts["total"] = sum(counts.values())
        return counts

    # -- the worker pool -----------------------------------------------

    def pool_width(self) -> int:
        """Worker count: the constructor argument, else the sweep default."""
        return parallel.resolve_jobs(self._pool_jobs)

    def _shared_pool(self, jobs: int) -> _PoolHandle:
        """The persistent pool, built on first use (``jobs`` ignored:
        the pool is sized once for the whole service)."""
        if self._pool is None:
            worker_dir = (
                str(obs.obs_output_dir() / "workers") if obs.enabled() else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.pool_width(),
                initializer=_serve_pool_init,
                initargs=(obs.enabled(), worker_dir),
            )
            obs.add("serve.pool.starts")
        return _PoolHandle(self._pool)

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next sweep builds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- dispatch ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run_job(job)
            finally:
                obs.gauge("serve.queue_depth", self._queue.qsize())
                job.done.set()

    def _run_job(self, job: Job) -> None:
        job.status = "running"
        points, merge = build_sweep(job.request)
        retries = max(0, knobs.integer("REPRO_SERVE_MAX_RETRIES") or 0)
        # Warm reuse-distance profiles shared across coalesced jobs: the
        # dispatcher is the store's single writer, so the counter delta
        # across the sweep is exactly this job's profile reuse (worker
        # counters fold in through the payload merge).
        hits_before = default_store().counters().get("profile_hits", 0)
        with obs.span(
            "serve.job", fig=job.request.figure, points=len(points),
            jobs=job.request.jobs,
        ):
            while True:
                job.attempts += 1
                try:
                    if job.request.jobs == 1:
                        # The exact serial driver path: no pool, no
                        # payload merge — byte-for-byte the in-process
                        # behaviour the golden tests pin.
                        rows = parallel.run_sweep(points, jobs=1)
                    else:
                        rows = parallel.run_sweep(
                            points,
                            jobs=job.request.jobs,
                            executor_factory=self._shared_pool,
                        )
                except BrokenProcessPool:
                    self._discard_pool()
                    if job.attempts > retries:
                        job.status = "failed"
                        job.error = (
                            f"worker pool broke {job.attempts} time(s); "
                            f"retries exhausted"
                        )
                        return
                    obs.add("serve.jobs.retried")
                    continue
                except Exception as exc:  # pure points: any other error is a bug
                    job.status = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                    return
                job.rows = merge(rows)
                job.status = "done"
                obs.add("serve.jobs.executed")
                obs.add("serve.sweep.rows", len(job.rows))
                hits = default_store().counters().get("profile_hits", 0)
                if hits > hits_before:
                    obs.add("serve.profile_hits", hits - hits_before)
                return

    # -- shutdown ------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the dispatcher (after queued jobs drain) and the pool."""
        self._queue.put(None)
        self._dispatcher.join(timeout=30)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
