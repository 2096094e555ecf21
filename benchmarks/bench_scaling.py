"""E10: parallel scaling and false sharing (Figures 5/6 x-axis; Section 3).

Work-stealing scheduler simulation over real traced task DAGs — the
paper observed near-perfect scalability on 1-4 processors — plus the
write-sharing comparison that motivates recursive layouts for parallel
execution in the first place.
"""

import pytest

from benchmarks.conftest import register_table
from repro.analysis.experiments import false_sharing_table, scaling_table
from repro.analysis.figures import FIGURES


@pytest.mark.parametrize("algorithm", ["standard", "strassen", "winograd"])
def test_e10_scaling(benchmark, algorithm):
    rows = benchmark.pedantic(
        scaling_table,
        kwargs=dict(algorithm=algorithm, n=192, procs=(1, 2, 4, 8)),
        rounds=1,
        iterations=1,
    )
    register_table(
        f"E10: simulated work-stealing scaling, {algorithm}, n=192",
        FIGURES["scaling"].table(rows),
    )
    by = {r["procs"]: r for r in rows}
    assert by[2]["ws_speedup"] > 1.8
    assert by[4]["ws_speedup"] > 3.5


def test_false_sharing_table(benchmark):
    rows = benchmark.pedantic(
        false_sharing_table,
        kwargs=dict(n_values=(61, 64, 100, 129), tile=8, procs=4),
        rounds=1,
        iterations=1,
    )
    register_table(
        "Section 3: false sharing of C under 4 processors (lines written "
        "by >1 processor)",
        FIGURES["sharing"].table(rows),
    )
    assert all(r["LZ_shared_lines"] == 0 for r in rows)
    assert any(r["LC_false_shared"] > 0 for r in rows)
