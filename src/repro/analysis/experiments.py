"""Experiment drivers: one function per paper figure/table (see DESIGN.md).

Every driver returns plain data (lists of dict rows) so the benchmark
harness, the examples, and the tests consume the same code path.  The
scales default to laptop-friendly sizes; the paper-scale parameters are
documented per driver and accepted as arguments.

A driver's keyword signature is the one declaration of its figure's
parameters and defaults (:mod:`repro.analysis.figures` generates the
CLI subcommand and the service's request schema from it).

The grid-shaped drivers (fig4/fig5/fig6/fig6sim/fig6ms) decompose into
sweep points executed by :mod:`repro.analysis.parallel`; their point
generators, which the service calls too, resolve the ``None`` defaults.
A ``jobs`` argument (default: ``REPRO_JOBS`` env, else
``os.cpu_count()``) fans the points out over a process pool;
``jobs=1`` is the original serial path.  Results are identical for
every ``jobs`` value — the golden-figure tests pin this byte-for-byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.algorithms.dgemm import dgemm
from repro.algorithms.locality import footprint_counts
from repro.analysis.parallel import (
    fig4_points,
    fig5_points,
    fig6_points,
    fig6ms_points,
    fig6sim_points,
    machine_or_default,
    run_sweep,
)
from repro.analysis.timing import measure
from repro.layouts.curves import dilation_profile
from repro.layouts.registry import PAPER_LAYOUTS
from repro.matrix.tile import TileRange
from repro.memsim.coherence import assign_by_output, false_sharing_stats
from repro.memsim.machine import MachineModel
from repro.memsim.synthetic import dense_standard_events
from repro.memsim.synthesis import synthesize_multiply
from repro.runtime.cilk import CostModel, TraceRuntime
from repro.runtime.critical import work_span
from repro.runtime.scheduler import greedy_makespan, work_stealing_makespan
from repro.runtime.task import span as sp_span
from repro.runtime.task import to_dag, work as sp_work

__all__ = [
    "fig1_locality",
    "fig2_layouts",
    "fig4_tile_size_sweep",
    "fig5_robustness",
    "fig6_layout_comparison",
    "fig7_kernel_tiers",
    "critical_path_table",
    "scaling_table",
    "conversion_accounting",
    "slowdown_vs_native",
    "false_sharing_table",
    "record_task_dag",
]


def fig1_locality(n: int = 8) -> list[dict]:
    """E1 / Figure 1: footprint statistics of the three algorithms."""
    rows = []
    with obs.span("fig1", n=n):
        for algo in ("standard", "strassen", "winograd"):
            with obs.span("fig1.point", algorithm=algo, n=n):
                counts = footprint_counts(algo, n)
                for which in ("A", "B"):
                    c = counts[which]
                    amax = np.unravel_index(int(c.argmax()), c.shape)
                    rows.append(
                        {
                            "algorithm": algo,
                            "input": which,
                            "min": int(c.min()),
                            "mean": float(c.mean()),
                            "max": int(c.max()),
                            "argmax": (int(amax[0]), int(amax[1])),
                            "diag_mean": float(np.diag(c).mean()),
                        }
                    )
    return rows


def fig2_layouts(order: int = 3) -> list[dict]:
    """E2 / Figure 2: dilation statistics of the seven layout functions."""
    rows = []
    with obs.span("fig2", order=order):
        for name in ("LR", "LC") + tuple(l for l in PAPER_LAYOUTS if l != "LC"):
            with obs.span("fig2.point", layout=name, order=order):
                prof = dilation_profile(name, order)
            rows.append({"layout": name, "order": order, **prof})
    return rows


def fig4_tile_size_sweep(
    n: int = 256,
    tiles: Sequence[int] | None = None,
    algorithm: str = "standard",
    layout: str = "LZ",
    repeats: int = 3,
    machine: MachineModel | None = None,
    include_memsim: bool = True,
    jobs: int | None = None,
) -> list[dict]:
    """E3 / Figure 4: execution time vs. leaf tile size.

    Paper scale: n=1024, t in {1..512} (and n=1536, t in {3..768}), one
    processor.  Default here: n=256 wall-clock with the memory simulator
    alongside; expect the time to fall steeply as t grows out of the
    recursion-overhead regime, flatten over a basin, and rise once the
    three-tile working set overflows L1.
    """
    points = fig4_points(
        n=n, tiles=tiles, algorithm=algorithm, layout=layout,
        repeats=repeats, machine=machine, include_memsim=include_memsim,
    )
    with obs.span("fig4", n=n, algorithm=algorithm, layout=layout, repeats=repeats):
        return run_sweep(points, jobs=jobs)


def fig5_robustness(
    n_values: Sequence[int] | None = None,
    tile: int = 16,
    machine: MachineModel | None = None,
    jobs: int | None = None,
) -> list[dict]:
    """E4 / Figure 5: sensitivity of memory cost to the matrix size n.

    Paper scale: n in [1000, 1048], wall-clock on 1-4 processors.  Here:
    simulated memory cycles per flop over a scaled n range, for the
    standard and Strassen algorithms under L_C (unpadded, ld = n) and
    L_Z.  Expected shape: large reproducible swings for standard/L_C,
    strongly damped for standard/L_Z, flat for Strassen under both.
    """
    points = fig5_points(n_values=n_values, tile=tile, machine=machine)
    with obs.span("fig5", tile=tile, points=len(points)):
        return run_sweep(points, jobs=jobs)


def fig6_layout_comparison(
    n: int = 200,
    algorithms: Sequence[str] = ("standard", "strassen", "winograd"),
    layouts: Sequence[str] = PAPER_LAYOUTS,
    procs: Sequence[int] = (1, 2, 4),
    trange: TileRange | None = None,
    repeats: int = 3,
    jobs: int | None = None,
) -> list[dict]:
    """E5 / Figure 6: all layouts x all algorithms x processor counts.

    Paper scale: n = 1000 and 1200 on 1-4 processors.  Wall-clock
    measures the 1-processor serial elision; multi-processor times come
    from the work-stealing scheduler simulation over the recorded task
    DAG (scaled by the measured serial time), since this host has one
    core.  Expected shape: the five recursive layouts cluster together;
    L_C is clearly slower for the standard algorithm and roughly
    competitive for the fast ones; near-linear scaling to 4 processors.
    """
    points = fig6_points(
        n=n, algorithms=algorithms, layouts=layouts, procs=procs,
        trange=trange, repeats=repeats,
    )
    with obs.span("fig6", n=n, repeats=repeats):
        return run_sweep(points, jobs=jobs)


def fig6_simulated(
    n: int = 250,
    tile: int = 16,
    algorithms: Sequence[str] = ("standard", "strassen", "winograd"),
    layouts: Sequence[str] = PAPER_LAYOUTS,
    machine: MachineModel | None = None,
    jobs: int | None = None,
) -> list[dict]:
    """E5 companion: simulated memory cost for every algorithm x layout.

    The interpreter hides cache effects in wall-clock (calibration note),
    so the layout comparison's *memory* dimension comes from the trace
    simulator.  Paper shape: recursive layouts beat L_C decisively for
    the standard algorithm (factors 1.2-2.5) and only marginally for the
    fast algorithms; the five recursive layouts are nearly identical.
    The default n=250 pads to 256 — mirroring how the paper's n=1000
    pads to a power-of-two leading dimension on its direct-mapped cache.
    """
    points = fig6sim_points(
        n=n, tile=tile, algorithms=algorithms, layouts=layouts, machine=machine,
    )
    with obs.span("fig6sim", n=n, tile=tile):
        raw = run_sweep(points, jobs=jobs)
    return fig6sim_merge(raw, n=n, algorithms=algorithms, layouts=layouts)


def fig6sim_merge(
    raw: list[dict],
    *,
    n: int,
    algorithms: Sequence[str],
    layouts: Sequence[str],
) -> list[dict]:
    """Merge step of :func:`fig6_simulated`: the vs-L_C ratio needs the
    whole per-algorithm row group, so it derives from the gathered
    cycles rather than inside a point.  Shared with the simulation
    service (:mod:`repro.serve`), which runs the same point grid through
    its own executor and must reproduce the driver's rows byte-for-byte.
    """
    cycles = {(r["algorithm"], r["layout"]): r["cycles"] for r in raw}
    flops = 2.0 * n**3
    rows = []
    for algo in algorithms:
        per_layout = {lay: cycles[(algo, lay)] for lay in layouts}
        for lay in layouts:
            rows.append(
                {
                    "algorithm": algo,
                    "layout": lay,
                    "n": n,
                    "sim_cycles_per_flop": per_layout[lay] / flops,
                    "vs_LC": per_layout[lay]
                    / per_layout.get("LC", per_layout[lay]),
                }
            )
    return rows


def fig6_machine_scaling(
    n: int = 48,
    tile: int = 8,
    algorithms: Sequence[str] = ("standard", "strassen"),
    layouts: Sequence[str] = ("LC", "LZ"),
    l1_assocs: Sequence[int] = (1, 2, 4, 8),
    l2_assocs: Sequence[int] = (1, 4),
    tlb_entries: Sequence[int] = (8, 32),
    jobs: int | None = None,
) -> list[dict]:
    """Machine-scaling sensitivity sweep: one trace, many machine models.

    How much of the recursive layouts' win survives as associativity
    buys out conflict misses?  Every (algorithm, layout) trace is priced
    on the full associativity/TLB grid of
    :func:`~repro.memsim.machine.assoc_scaled` — the canonical consumer
    of the multi-config reuse-distance profile: per trace, one profile
    build answers the entire machine grid, each machine by a few lookups
    in the profile's precomputed miss tails.
    """
    points = fig6ms_points(
        n=n, tile=tile, algorithms=algorithms, layouts=layouts,
        l1_assocs=l1_assocs, l2_assocs=l2_assocs, tlb_entries=tlb_entries,
    )
    configs = len(points) * len(l1_assocs) * len(l2_assocs) * len(tlb_entries)
    with obs.span("fig6ms", n=n, tile=tile, configs=configs):
        raw = run_sweep(points, jobs=jobs)
    return fig6ms_merge(raw, n=n, layouts=layouts)


def fig6ms_merge(
    raw: list[list[dict]], *, n: int, layouts: Sequence[str]
) -> list[dict]:
    """Merge step of :func:`fig6_machine_scaling`: flatten each trace's
    per-machine rows in sweep order, then derive cycles/flop and the
    per-machine vs-L_C ratio (needs the whole layout row group for each
    machine config).  Shared with the simulation service."""
    raw = [row for trace_rows in raw for row in trace_rows]
    cycles = {
        (r["algorithm"], r["layout"], r["l1_assoc"], r["l2_assoc"],
         r["tlb_entries"]): r["cycles"]
        for r in raw
    }
    flops = 2.0 * n**3
    rows = []
    for r in raw:
        machine_key = (r["algorithm"], r["l1_assoc"], r["l2_assoc"],
                       r["tlb_entries"])
        lc = cycles.get((machine_key[0], "LC", *machine_key[1:]))
        row = {k: v for k, v in r.items() if k != "cycles"}
        row["cycles_per_flop"] = r["cycles"] / flops
        row["vs_LC"] = r["cycles"] / lc if lc else 1.0
        rows.append(row)
    return rows


def record_task_dag(
    algorithm: str,
    n: int,
    trange: TileRange | None = None,
    cost_model: CostModel | None = None,
):
    """Execute one n x n multiply under :class:`TraceRuntime` and lower
    the recorded SP tree to a precedence DAG.

    Returns ``(dag, root)`` — the :class:`DagNode` list the scheduler
    simulations consume plus the SP-tree root for work/span queries.
    Shared by the scaling/speedup drivers and ``python -m repro trace``.
    """
    from repro.matrix.tile import select_matmul_tiling
    from repro.matrix.tiledmatrix import TiledMatrix
    from repro.algorithms.dgemm import ALGORITHMS
    from repro.algorithms.recursion import Context

    trange = trange or TileRange()
    tiling = select_matmul_tiling(n, n, n, trange)
    with obs.span("record_task_dag", algorithm=algorithm, n=n):
        rt = TraceRuntime(cost_model or CostModel())
        ctx = Context(rt)
        mats = [
            TiledMatrix.zeros("LZ", tiling.d, tr, tc, n, n)
            for tr, tc in [
                (tiling.t_m, tiling.t_n),
                (tiling.t_m, tiling.t_k),
                (tiling.t_k, tiling.t_n),
            ]
        ]
        c, a, b = mats
        ALGORITHMS[algorithm](c.root_view(), a.root_view(), b.root_view(), ctx)
        dag = to_dag(rt.root)
    obs.add("scheduler.dags_recorded")
    obs.observe("scheduler.dag_tasks", len(dag))
    return dag, rt.root


def simulated_speedups(
    algorithm: str,
    n: int,
    trange: TileRange | None = None,
    procs: Sequence[int] = (1, 2, 4),
    cost_model: CostModel | None = None,
    steal_cost: float = 100.0,
) -> dict[int, float]:
    """Work-stealing speedups from the recorded task DAG of one multiply."""
    dag, root = record_task_dag(algorithm, n, trange=trange, cost_model=cost_model)
    t1 = sp_work(root)
    out = {}
    for p in procs:
        if p == 1:
            out[1] = 1.0
            continue
        with obs.span("schedule.ws", algorithm=algorithm, n=n, procs=p):
            res = work_stealing_makespan(dag, p, steal_cost=steal_cost)
        res.publish("scheduler.ws")
        out[p] = t1 / res.makespan
    return out


def fig7_kernel_tiers(
    n: int = 128,
    tile: int = 16,
    layout: str = "LZ",
    algorithm: str = "standard",
    repeats: int = 3,
) -> list[dict]:
    """E6 / Figure 7: cost of progressively less-optimized leaf kernels.

    The paper measured native-BLAS vs. their C kernel under two
    compilers (factors 1.2-1.4 and 1.5-1.9).  The Python analog ranks
    the BLAS leaf, the vectorized rank-1-update leaf, and the pure-
    Python unrolled leaf; absolute factors are interpreter-scale, the
    ordering and the monotone degradation are the reproduced shape.
    """
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    rows = []
    base = None
    with obs.span("fig7", n=n, tile=tile):
        for kernel in ("blas", "sixloop", "unrolled"):
            reps = repeats if kernel != "unrolled" else 1
            with obs.span("fig7.point", kernel=kernel, n=n):
                meas = measure(
                    lambda: dgemm(a, b, tile=tile, algorithm=algorithm,
                                  layout=layout, kernel=kernel),
                    repeats=reps,
                    # Warm caches/permutations for the fast tiers so cold-start
                    # noise cannot reorder them; skip for the very slow tier.
                    warmup=1 if kernel != "unrolled" else 0,
                )
            if base is None:
                base = meas.median
            rows.append(
                {
                    "kernel": kernel,
                    "n": n,
                    "seconds": meas.median,
                    "factor_vs_blas": meas.median / base,
                }
            )
    return rows


def critical_path_table(
    n: int = 1024,
    tile: int = 32,
    cost_model: CostModel | None = None,
) -> list[dict]:
    """E7: work/span/parallelism per algorithm (paper: ~40 vs ~23 at n=1000)."""
    cm = cost_model or CostModel()
    rows = []
    for algo in ("standard", "standard_temps", "strassen", "winograd"):
        with obs.span("critical.point", algorithm=algo, n=n, tile=tile):
            ws = work_span(algo, n, tile, cm)
        rows.append(
            {
                "algorithm": algo,
                "n": n,
                "tile": tile,
                "work": ws.work,
                "span": ws.span,
                "parallelism": ws.parallelism,
                "speedup_at_4": ws.speedup(4),
                "speedup_at_40": ws.speedup(40),
            }
        )
    return rows


def scaling_table(
    algorithm: str = "standard",
    n: int = 256,
    procs: Sequence[int] = (1, 2, 4, 8),
    trange: TileRange | None = None,
) -> list[dict]:
    """E10: simulated work-stealing scaling, with the greedy bound."""
    dag, root = record_task_dag(algorithm, n, trange=trange)
    t1 = sp_work(root)
    tinf = sp_span(root)
    rows = []
    with obs.span("scaling", algorithm=algorithm, n=n):
        for p in procs:
            with obs.span("scaling.point", algorithm=algorithm, n=n, procs=p):
                greedy = greedy_makespan(dag, p)
                ws = work_stealing_makespan(dag, p) if p > 1 else greedy
                ws.publish("scheduler.ws" if p > 1 else "scheduler.greedy")
                rows.append(
                    {
                        "algorithm": algorithm,
                        "n": n,
                        "procs": p,
                        "T1": t1,
                        "Tinf": tinf,
                        "greedy_speedup": t1 / greedy.makespan,
                        "ws_speedup": t1 / ws.makespan,
                        "utilization": ws.utilization,
                        "steals": ws.steals,
                    }
                )
    return rows


def conversion_accounting(
    n_values: Sequence[int] = (128, 192, 256),
    algorithm: str = "standard",
    layout: str = "LZ",
) -> list[dict]:
    """E9: conversion cost as a fraction of end-to-end dgemm time."""
    rng = np.random.default_rng(9)
    rows = []
    for n in n_values:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        with obs.span("conversion.point", n=n, algorithm=algorithm, layout=layout):
            res = dgemm(a, b, algorithm=algorithm, layout=layout)
        rows.append(
            {
                "n": n,
                "algorithm": algorithm,
                "layout": layout,
                "total_seconds": res.total_seconds,
                "conversion_seconds": res.conversion.seconds,
                "conversion_fraction": res.conversion_fraction,
                "conversions": res.conversion.count,
            }
        )
    return rows


def slowdown_vs_native(
    n: int = 256,
    tile: int = 16,
    algorithm: str = "standard",
    layout: str = "LZ",
    repeats: int = 3,
) -> dict:
    """E8: our best recursive multiply vs. the native BLAS (numpy dot).

    The paper reports a slowdown factor of 1.88 at n=1024 / t=16 against
    Sun's perflib dgemm (Frens & Wise were at ~8x).
    """
    rng = np.random.default_rng(8)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    with obs.span("slowdown_vs_native", n=n, tile=tile, algorithm=algorithm):
        ours = measure(
            lambda: dgemm(a, b, tile=tile, algorithm=algorithm, layout=layout),
            repeats=repeats,
            warmup=1,
        )
        native = measure(lambda: a @ b, repeats=repeats, warmup=1)
    return {
        "n": n,
        "tile": tile,
        "ours_seconds": ours.median,
        "native_seconds": native.median,
        "slowdown": ours.median / native.median,
    }


def false_sharing_table(
    n_values: Sequence[int] = (61, 64, 100, 129),
    tile: int = 8,
    procs: int = 4,
    machine: MachineModel | None = None,
) -> list[dict]:
    """Parallel write-sharing: canonical vs. recursive layout (Section 3)."""
    machine = machine_or_default(machine)
    rows = []
    for n in n_values:
        with obs.span("sharing.point", n=n, tile=tile, procs=procs):
            ev = dense_standard_events(n, tile)
            owner = assign_by_output(ev, procs, 3, n, ld=n)
            lc = false_sharing_stats(ev, owner, machine)
            # Descriptor-only synthesis: the executed tracer's event
            # regions, with no multiply run behind them.
            table, sizes = synthesize_multiply("standard", "LZ", n, tile)
            ev = table.to_events()
            c_space = ev[0].write.space
            owner = assign_by_output(
                ev, procs, c_space, n, tiled_total=sizes[c_space]
            )
            lz = false_sharing_stats(ev, owner, machine, sizes)
        rows.append(
            {
                "n": n,
                "procs": procs,
                "LC_shared_lines": lc.shared_lines,
                "LC_false_shared": lc.false_shared_lines,
                "LC_invalidations": lc.invalidations,
                "LZ_shared_lines": lz.shared_lines,
                "LZ_false_shared": lz.false_shared_lines,
                "LZ_invalidations": lz.invalidations,
            }
        )
    return rows
