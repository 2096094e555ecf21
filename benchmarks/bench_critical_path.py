"""E7: critical path and parallelism (paper Section 5 "General comments").

The paper measured, via Cilk's critical-path tracking at n = 1000,
enough parallelism to keep ~40 processors busy for the standard
algorithm and ~23 for the fast ones.  Here the work/span recurrences
produce the table for the paper's exact problem size, and the DAG
scheduler is timed on a real traced computation.
"""

from benchmarks.conftest import register_table
from repro.analysis.experiments import critical_path_table
from repro.analysis.figures import FIGURES
from repro.runtime.critical import work_span
from repro.runtime.scheduler import work_stealing_makespan


def test_e7_critical_path_table(benchmark):
    rows = benchmark(critical_path_table, 1024, 32)
    register_table(
        "E7: work/span at n=1024, t=32 (paper: parallelism ~40 std, ~23 fast)",
        FIGURES["critical"].table(rows),
    )
    by = {r["algorithm"]: r for r in rows}
    assert by["standard"]["parallelism"] > by["strassen"]["parallelism"]
    assert by["strassen"]["parallelism"] > 4  # ample for the E3000's 4 CPUs
    assert by["standard"]["speedup_at_4"] > 3.9


def test_work_span_recurrence_speed(benchmark):
    ws = benchmark(work_span, "winograd", 4096, 16)
    assert ws.parallelism > 1


def test_work_stealing_simulation_speed(benchmark):
    from repro.analysis.experiments import simulated_speedups
    from repro.matrix.tile import TileRange

    # End-to-end: trace a Strassen multiply, lower to a DAG, simulate.
    sp = benchmark.pedantic(
        simulated_speedups,
        args=("strassen", 128),
        kwargs=dict(trange=TileRange(16, 32), procs=(4,)),
        rounds=1,
        iterations=1,
    )
    assert sp[4] > 2.5


def test_scheduler_on_wide_dag(benchmark):
    from repro.runtime.task import leaf, parallel, series, to_dag

    tree = series(leaf(1.0), parallel(*[leaf(50.0) for _ in range(512)]))
    dag = to_dag(tree)
    res = benchmark(work_stealing_makespan, dag, 8)
    assert res.busy_time > 0
