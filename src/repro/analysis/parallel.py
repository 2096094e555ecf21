"""Process-pool sweep executor: fan independent sweep points out across
worker processes and merge the results deterministically.

The figure drivers in :mod:`repro.analysis.experiments` are grids of
independent configuration points (a tile size, a matrix size, an
algorithm x layout pair).  Each point is a pure function of a small
picklable parameter set, so the sweep is embarrassingly parallel at the
configuration level.  This module provides the three pieces:

* **Decomposition** — :class:`SweepPoint` names a registered module-level
  *point function* (by string key, so pickling works under every
  multiprocessing start method, including ``spawn``) plus its keyword
  arguments as a sorted tuple.  ``fig4_points`` / ``fig5_points`` /
  ``fig6_points`` / ``fig6sim_points`` / ``fig6ms_points`` generate the
  per-figure grids in their canonical order and resolve the drivers'
  ``None`` defaults, so a driver and the simulation service, which both
  call them, build the same grid.
* **Execution** — :func:`run_sweep` runs the points.  Worker count
  resolves as: explicit ``jobs`` argument, else the ``REPRO_JOBS``
  environment variable, else ``os.cpu_count()``.  ``jobs == 1`` is the
  serial path: a plain in-process loop, byte-for-byte the behaviour the
  drivers had before this module existed (no pool, no resets, spans
  nest under the caller).  ``jobs > 1`` fans out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; workers share the
  content-addressed trace store on disk (atomic-rename writes make
  concurrent put/get safe — ``tests/test_store_concurrency.py`` proves
  it) and ship their observability state back to the parent.
* **Merge** — results are keyed by point index and merged in sweep
  order, so the output is invariant to completion order (shuffled-order
  property tests enforce this).  Worker store hit/miss counters are
  summed into the parent's store, worker spans are re-recorded into the
  parent collector (ids remapped), and worker metrics snapshots merge
  into the parent registry, so ``python -m repro report`` reflects the
  whole sweep under ``REPRO_JOBS > 1``.

Determinism contract: a point function must depend only on its
parameters (seeds included in them or hard-coded), never on execution
order, sibling results, process identity, or cache state.  Under that
contract ``run_sweep`` output is identical for every ``jobs`` value;
the golden-figure tests pin it byte-for-byte (wall-clock fields are
zeroed via ``REPRO_DETERMINISTIC_TIMING`` — see
:mod:`repro.analysis.timing`).
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import knobs, obs
from repro.algorithms.dgemm import dgemm
from repro.analysis.timing import measure
from repro.matrix.tile import TileRange
from repro.memsim.machine import MachineModel, assoc_scaled, ultrasparc_like
from repro.memsim.store import (
    cached_multiply_stats,
    cached_synthetic_stats,
    default_store,
)

__all__ = [
    "SweepPoint",
    "POINT_FUNCTIONS",
    "point_function",
    "make_point",
    "run_point",
    "run_sweep",
    "resolve_jobs",
    "merge_payloads",
    "fig4_points",
    "fig5_points",
    "fig6_points",
    "fig6sim_points",
    "fig6ms_points",
    "machine_or_default",
]


# -- sweep points ------------------------------------------------------

#: Registry of module-level point functions, keyed by the name a
#: :class:`SweepPoint` carries.  Registration happens at import time, so
#: a freshly spawned worker that imports this module can resolve every
#: point a parent pickles to it.  A point function returns its row, or
#: its list of rows when one trace is priced on many machines (fig6ms).
POINT_FUNCTIONS: dict[str, Callable[..., dict | list[dict]]] = {}


def point_function(name: str):
    """Register a module-level callable as a sweep-point function."""

    def register(fn):
        POINT_FUNCTIONS[name] = fn
        return fn

    return register


@dataclass(frozen=True)
class SweepPoint:
    """One pure, picklable unit of sweep work.

    ``fn`` names an entry in :data:`POINT_FUNCTIONS` (a string, never a
    callable — lambdas and closures cannot cross a ``spawn`` boundary);
    ``params`` is the function's keyword arguments as a key-sorted
    tuple of pairs, so equal points compare and hash equal.  ``index``
    is the point's position in the sweep's canonical order and is the
    merge key.
    """

    fig: str
    index: int
    fn: str
    params: tuple[tuple[str, Any], ...]

    def kwargs(self) -> dict[str, Any]:
        """The point function's keyword arguments as a dict."""
        return dict(self.params)


def make_point(fig: str, index: int, fn: str, **params) -> SweepPoint:
    """Build a :class:`SweepPoint`, validating the function name."""
    if fn not in POINT_FUNCTIONS:
        raise KeyError(
            f"unknown point function {fn!r}; registered: "
            f"{sorted(POINT_FUNCTIONS)}"
        )
    return SweepPoint(fig, index, fn, tuple(sorted(params.items())))


def run_point(point: SweepPoint) -> dict | list[dict]:
    """Execute one sweep point in the current process."""
    try:
        fn = POINT_FUNCTIONS[point.fn]
    except KeyError:
        raise KeyError(
            f"point function {point.fn!r} is not registered in this "
            f"process; registered: {sorted(POINT_FUNCTIONS)}"
        ) from None
    return fn(**point.kwargs())


# -- worker-side plumbing ----------------------------------------------

#: Directory for per-worker span JSONL files (set by the pool
#: initializer in each worker; None disables the export).
_WORKER_DIR: str | None = None


def _pool_init(obs_enabled: bool, worker_dir: str | None) -> None:
    """Pool initializer: runs once in every worker process.

    Propagates the parent's runtime obs flag (``python -m repro report``
    enables obs with :func:`repro.obs.set_enabled`, which a spawned
    worker would not see through the environment) and clears any state a
    ``fork``-start worker inherited, so payload deltas are exactly this
    worker's own work.
    """
    global _WORKER_DIR
    _WORKER_DIR = worker_dir
    obs.set_enabled(obs_enabled)
    if obs_enabled:
        obs.reset()
    default_store().reset_counters()


def _append_worker_spans(worker_dir: str, records: list[dict]) -> Path:
    """Append span records to this worker's JSONL file."""
    path = Path(worker_dir) / f"spans-worker-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
    return path


def _worker_call(point: SweepPoint) -> dict:
    """Run one point in a worker and package the result for the parent.

    The payload carries the row plus this task's trace-store counter
    delta and (when obs is on) its spans and metrics snapshot.  Counters
    and obs state are reset at task start so the delta is exact
    per-task, which keeps the parent-side merge a plain sum.
    """
    store = default_store()
    store.reset_counters()
    if obs.enabled():
        obs.reset()
    row = run_point(point)
    payload = {
        "index": point.index,
        "row": row,
        "store_counters": store.counters(),
        "store_touched": store.touched_map(),
    }
    if obs.enabled():
        records = obs.collector().spans()
        payload["spans"] = records
        payload["metrics"] = obs.registry().snapshot()
        if _WORKER_DIR:
            _append_worker_spans(_WORKER_DIR, records)
    return payload


# -- execution and merge -----------------------------------------------

def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        jobs = knobs.integer("REPRO_JOBS")
        if jobs is None:
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def merge_payloads(
    points: Sequence[SweepPoint], payloads: Iterable[dict]
) -> list[dict]:
    """Merge worker payloads into rows in deterministic point order.

    Completion order is irrelevant: payloads are keyed by point index
    and emitted in the order of ``points``.  Duplicate or missing
    indices raise — a sweep either produces exactly its grid or fails
    loudly.  Side effects: worker store counters/touched keys are summed
    into the parent's default store, and worker spans/metrics are merged
    into the parent obs collector/registry when obs is enabled.
    """
    by_index: dict[int, dict] = {}
    for payload in payloads:
        idx = payload["index"]
        if idx in by_index:
            raise RuntimeError(f"duplicate sweep-point index {idx}")
        by_index[idx] = payload
    missing = [p.index for p in points if p.index not in by_index]
    if missing:
        raise RuntimeError(f"sweep points never completed: {missing}")
    store = default_store()
    rows = []
    for point in points:
        payload = by_index[point.index]
        rows.append(payload["row"])
        counters = payload.get("store_counters")
        if counters:
            store.merge_counters(counters, payload.get("store_touched"))
        if obs.enabled():
            if payload.get("spans"):
                obs.collector().merge(payload["spans"])
            if payload.get("metrics"):
                obs.registry().merge(payload["metrics"])
    return rows


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: int | None = None,
    executor_factory: Callable[[int], Any] | None = None,
) -> list[dict]:
    """Run ``points`` and return their rows in sweep order.

    ``jobs`` resolves via :func:`resolve_jobs` and is capped at the
    point count.  At ``jobs == 1`` (and no injected executor) the points
    run serially in-process — the exact pre-pool driver behaviour.
    Otherwise each point is submitted to a process pool and the results
    are merged order-independently via :func:`merge_payloads`.

    ``executor_factory`` (tests) overrides pool construction; it
    receives the resolved worker count and must return a
    ``concurrent.futures.Executor``-like context manager.
    """
    points = list(points)
    if not points:
        return []
    jobs = min(resolve_jobs(jobs), len(points))
    obs.add("sweep.runs")
    obs.gauge("sweep.jobs", jobs)
    obs.observe("sweep.points", len(points))
    if jobs == 1 and executor_factory is None:
        return [run_point(p) for p in points]
    worker_dir = str(obs.obs_output_dir() / "workers") if obs.enabled() else None
    if executor_factory is None:
        executor_factory = lambda n: ProcessPoolExecutor(
            max_workers=n,
            initializer=_pool_init,
            initargs=(obs.enabled(), worker_dir),
        )
    with obs.span("sweep.pool", fig=points[0].fig, points=len(points), jobs=jobs):
        with executor_factory(jobs) as executor:
            futures = [executor.submit(_worker_call, p) for p in points]
            payloads = [fut.result() for fut in as_completed(futures)]
    return merge_payloads(points, payloads)


# -- shared figure defaults --------------------------------------------

def machine_or_default(machine: MachineModel | None) -> MachineModel:
    """``machine``, else the UltraSPARC-like model the memsim figures
    price on by default (the paper's direct-mapped E3000 geometry)."""
    return machine if machine is not None else ultrasparc_like()


# -- figure 4: tile-size sweep -----------------------------------------

@point_function("fig4.point")
def fig4_point(
    *,
    n: int,
    tile: int,
    algorithm: str,
    layout: str,
    repeats: int,
    machine: MachineModel,
    include_memsim: bool,
) -> dict:
    """One Figure-4 point: wall-clock + simulated cost of one tile size.

    The operands regenerate from the fixed seed in every call, so the
    row is a pure function of the parameters no matter which process
    runs it.
    """
    rng = np.random.default_rng(4)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    with obs.span("fig4.point", n=n, tile=tile, algorithm=algorithm,
                  layout=layout):
        res = dgemm(a, b, tile=tile, algorithm=algorithm, layout=layout)
        meas = measure(
            lambda: dgemm(a, b, tile=tile, algorithm=algorithm, layout=layout),
            repeats=repeats,
            warmup=0,
        )
        row = {
            "n": n,
            "tile": tile,
            "seconds": meas.median,
            "conversion_fraction": res.conversion_fraction,
        }
        if include_memsim:
            (stats,) = cached_multiply_stats(algorithm, layout, n, tile, [machine])
            row["sim_cycles"] = stats.cycles
            row["sim_cycles_per_flop"] = stats.cycles / (2 * n**3)
            row["l1_miss_rate"] = stats.l1_miss_rate
    return row


def fig4_points(
    *,
    n: int,
    tiles: Sequence[int] | None,
    algorithm: str,
    layout: str,
    repeats: int,
    machine: MachineModel | None,
    include_memsim: bool,
) -> list[SweepPoint]:
    """Figure-4 grid: one point per tile size, in sweep order.  The
    default tiles are the powers of two from 4 to 128 that fit ``n``."""
    if tiles is None:
        tiles = [t for t in (4, 8, 16, 32, 64, 128) if t <= n]
    machine = machine_or_default(machine)
    return [
        make_point(
            "fig4", i, "fig4.point",
            n=n, tile=t, algorithm=algorithm, layout=layout,
            repeats=repeats, machine=machine, include_memsim=include_memsim,
        )
        for i, t in enumerate(tiles)
    ]


# -- figure 5: robustness scan -----------------------------------------

@point_function("fig5.point")
def fig5_point(*, n: int, tile: int, machine: MachineModel, depth: int) -> dict:
    """One Figure-5 point: simulated cycles/flop for one matrix size."""
    with obs.span("fig5.point", n=n, tile=tile):
        flops = 2.0 * n**3
        # standard / LC: canonical storage with leading dimension n.
        (lc_std,) = cached_synthetic_stats("dense_standard", [machine], n=n,
                                           tile=tile)
        # standard / LZ: real recursive-layout execution (padded).
        (lz_std,) = cached_multiply_stats("standard", "LZ", n, tile, [machine],
                                          depth=depth)
        # strassen / LC: synthetic ld=n trace with contiguous temporaries.
        (lc_str,) = cached_synthetic_stats("dense_strassen", [machine], n=n,
                                           tile=tile, depth=depth)
        # strassen / LZ: real recursive-layout execution.
        (lz_str,) = cached_multiply_stats("strassen", "LZ", n, tile, [machine],
                                          depth=depth)
    return {
        "n": n,
        "standard_LC": lc_std.cycles / flops,
        "standard_LZ": lz_std.cycles / flops,
        "strassen_LC": lc_str.cycles / flops,
        "strassen_LZ": lz_str.cycles / flops,
    }


def fig5_points(
    *, n_values: Sequence[int] | None, tile: int, machine: MachineModel | None
) -> list[SweepPoint]:
    """Figure-5 grid: one point per matrix size (default: 248..280 in
    steps of 4), pinned to one tile-grid regime.

    The paper's [1000, 1048] range keeps d=5 with t = ceil(n/32); a grid
    adapting mid-sweep would step the leaf size and mask the per-n
    memory effects, so every point takes the depth the smallest n
    implies.
    """
    n_values = list(range(248, 281, 4) if n_values is None else n_values)
    machine = machine_or_default(machine)
    depth = max(0, (min(n_values) // tile).bit_length() - 1)
    return [
        make_point("fig5", i, "fig5.point", n=n, tile=tile, machine=machine,
                   depth=depth)
        for i, n in enumerate(n_values)
    ]


# -- figure 6: layout comparison (wall-clock + scheduler) --------------

@point_function("fig6.point")
def fig6_point(
    *,
    n: int,
    algorithm: str,
    layout: str,
    procs: tuple[int, ...],
    trange: TileRange,
    repeats: int,
) -> dict:
    """One Figure-6 point: wall-clock + simulated multi-processor times
    for one algorithm x layout pair."""
    from repro.analysis.experiments import simulated_speedups

    rng = np.random.default_rng(6)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    with obs.span("fig6.point", algorithm=algorithm, layout=layout, n=n):
        meas = measure(
            lambda: dgemm(a, b, algorithm=algorithm, layout=layout,
                          trange=trange),
            repeats=repeats,
            warmup=1,
        )
        row = {"algorithm": algorithm, "layout": layout, "n": n,
               "p1_seconds": meas.median}
        if len([p for p in procs if p > 1]):
            speedups = simulated_speedups(algorithm, n, trange=trange,
                                          procs=procs)
            for p in procs:
                if p == 1:
                    continue
                row[f"p{p}_seconds"] = meas.median / speedups[p]
    return row


def fig6_points(
    *,
    n: int,
    algorithms: Sequence[str],
    layouts: Sequence[str],
    procs: Sequence[int],
    trange: TileRange | None,
    repeats: int,
) -> list[SweepPoint]:
    """Figure-6 grid: algorithms x layouts, in the driver's nested order;
    ``trange=None`` is the default :class:`TileRange`."""
    trange = trange or TileRange()
    points = []
    for algo in algorithms:
        for lay in layouts:
            points.append(
                make_point(
                    "fig6", len(points), "fig6.point",
                    n=n, algorithm=algo, layout=lay, procs=tuple(procs),
                    trange=trange, repeats=repeats,
                )
            )
    return points


# -- figure 6 companion: simulated memory cost -------------------------

@point_function("fig6sim.point")
def fig6sim_point(
    *, algorithm: str, layout: str, n: int, tile: int, machine: MachineModel
) -> dict:
    """One simulated-memory point: cycles for one algorithm x layout.

    Returns raw cycles; the driver's merge step derives cycles/flop and
    the vs-L_C ratio, which need the whole per-algorithm row group.
    """
    with obs.span("fig6sim.point", algorithm=algorithm, layout=layout, n=n):
        (st,) = cached_multiply_stats(algorithm, layout, n, tile, [machine])
    return {"algorithm": algorithm, "layout": layout, "n": n,
            "cycles": st.cycles}


def fig6sim_points(
    *,
    n: int,
    tile: int,
    algorithms: Sequence[str],
    layouts: Sequence[str],
    machine: MachineModel | None,
) -> list[SweepPoint]:
    """Simulated layout-comparison grid, in the driver's nested order."""
    machine = machine_or_default(machine)
    points = []
    for algo in algorithms:
        for lay in layouts:
            points.append(
                make_point(
                    "fig6sim", len(points), "fig6sim.point",
                    algorithm=algo, layout=lay, n=n, tile=tile, machine=machine,
                )
            )
    return points


# -- figure 6 machine scaling: one trace, many machine models ----------

@point_function("fig6ms.point")
def fig6ms_point(
    *, algorithm: str, layout: str, n: int, tile: int,
    machines: tuple[MachineModel, ...],
) -> list[dict]:
    """One machine-scaling point: miss rates of one algorithm x layout
    trace on every associativity/TLB configuration of the grid.

    The grid is the multi-config profile's home turf: one profile,
    built at the grid's union of caps, answers every machine by a few
    lookups in its precomputed miss tails.
    """
    with obs.span("fig6ms.point", algorithm=algorithm, layout=layout,
                  configs=len(machines)):
        stats = cached_multiply_stats(algorithm, layout, n, tile, machines)
    return [
        {
            "algorithm": algorithm,
            "layout": layout,
            "n": n,
            "l1_assoc": machine.l1.assoc,
            "l1_kb": machine.l1.size // 1024,
            "l2_assoc": machine.l2.assoc,
            "l2_kb": machine.l2.size // 1024,
            "tlb_entries": machine.tlb_entries,
            "l1_miss_rate": st.l1_miss_rate,
            "l2_miss_rate": st.l2_miss_rate,
            "tlb_misses": st.tlb_misses,
            "cycles": st.cycles,
        }
        for machine, st in zip(machines, stats)
    ]


def fig6ms_points(
    *,
    n: int,
    tile: int,
    algorithms: Sequence[str],
    layouts: Sequence[str],
    l1_assocs: Sequence[int],
    l2_assocs: Sequence[int],
    tlb_entries: Sequence[int],
) -> list[SweepPoint]:
    """Machine-scaling grid: one point per algorithm x layout trace,
    carrying the whole L1-way x L2-way x TLB machine grid."""
    machines = tuple(
        assoc_scaled(*axes)
        for axes in itertools.product(l1_assocs, l2_assocs, tlb_entries)
    )
    return [
        make_point("fig6ms", i, "fig6ms.point", algorithm=algo, layout=lay,
                   n=n, tile=tile, machines=machines)
        for i, (algo, lay) in enumerate(itertools.product(algorithms, layouts))
    ]
