"""E4 / Figure 5: robustness of performance as the matrix size varies.

Paper scale: n in [1000, 1048] wall-clock on the 4-CPU E3000.  Here the
trace-driven simulator sweeps a range straddling the pathological
power-of-two size on the UltraSPARC-like geometry.  Expected shape:
standard/L_C swings hugely and reproducibly; standard/L_Z damps it;
Strassen is flat under both layouts (Section 5.1's explanation: its
temporaries halve the leading dimension every level).
"""

from benchmarks.conftest import register_table
from repro.analysis.experiments import fig5_robustness
from repro.analysis.figures import FIGURES
from repro.analysis.report import ascii_plot, format_table
from repro.memsim.hierarchy import simulate_hierarchy
from repro.memsim.machine import ultrasparc_like
from repro.memsim.store import cached_multiply_stats, cached_synthetic_stats
from repro.memsim.synthesis import EventTable, expand_table, synthesize_multiply
from repro.memsim.synthetic import dense_standard_events

N_VALUES = list(range(248, 281, 4))
KEYS = ["standard_LC", "standard_LZ", "strassen_LC", "strassen_LZ"]


def test_cache_simulation_throughput(benchmark):
    mach = ultrasparc_like()
    addrs = expand_table(
        EventTable.from_events(dense_standard_events(n=128, tile=16)), mach
    )
    stats = benchmark(simulate_hierarchy, addrs, mach)
    assert stats.accesses == len(addrs)


def test_fig5_robustness_table(benchmark):
    rows = benchmark.pedantic(
        fig5_robustness,
        kwargs=dict(n_values=N_VALUES, tile=16),
        rounds=1,
        iterations=1,
    )
    table = FIGURES["fig5"].table(rows)
    series = {k: [r[k] for r in rows] for k in KEYS}
    plot = ascii_plot(series, x=N_VALUES, title="sim memory cycles per flop")
    rel = lambda xs: (max(xs) - min(xs)) / min(xs)  # noqa: E731
    swings = format_table(
        ["config", "relative swing"],
        [[k, rel(series[k])] for k in KEYS],
    )
    register_table(
        "Figure 5: robustness over n in [248, 280] (sim cycles/flop)",
        table + "\n" + plot + "\n" + swings,
    )
    # The paper's shape.
    assert rel(series["standard_LC"]) > 2 * rel(series["standard_LZ"])
    assert rel(series["standard_LC"]) > 4 * rel(series["strassen_LC"])
    assert rel(series["strassen_LZ"]) < 0.25


def test_e11_space_saving_variant(benchmark):
    """E11 (paper Section 5.1, last paragraph): the space-conserving
    sequential Strassen with interspersed additions.

    The paper reports that for this variant "L_Z reduces execution times
    by 10-20%", unlike the parallel fresh-temporaries version, and
    leaves a systematic explanation open.  In the simulator the
    *differential* reproduces with a smaller magnitude: L_Z buys the
    space-saving variant ~6% versus ~1-3% for the parallel one (see
    EXPERIMENTS.md E11).
    """
    mach = ultrasparc_like()

    def run():
        rows = []
        for n in (250, 256):
            flops = 2.0 * n**3
            row = [n]
            for algo in ("strassen", "strassen_space"):
                for lay in ("LC", "LZ"):
                    (st,) = cached_multiply_stats(algo, lay, n, 16, [mach],
                                                  depth=4)
                    row.append(st.cycles / flops)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    register_table(
        "E11: space-saving sequential Strassen vs parallel (sim cycles/flop)",
        format_table(
            ["n", "parallel LC", "parallel LZ", "space-saving LC",
             "space-saving LZ"],
            rows,
        ),
    )
    for n, p_lc, p_lz, s_lc, s_lz in rows:
        # Both variants stay robust; LZ never hurts materially.
        assert p_lz < 1.1 * p_lc
        assert s_lz < 1.1 * s_lc


def test_e12_conflict_miss_classification(benchmark):
    """E12 (paper footnote 1): the pathological canonical sizes lose to
    *conflict* misses specifically — verified with a 3C decomposition
    against a fully-associative cache of the same capacity."""
    from repro.memsim.classify import classify_misses

    mach = ultrasparc_like()
    tile = 16

    def run():
        rows = []
        for label, n in (("LC", 250), ("LC", 256), ("LZ", 256)):
            if label == "LC":
                events = dense_standard_events(n=n, tile=tile)
                addrs = expand_table(EventTable.from_events(events), mach)
            else:
                table, sizes = synthesize_multiply("standard", "LZ", n, tile)
                addrs = expand_table(table, mach, sizes)
            b = classify_misses(addrs, mach.l1)
            rows.append(
                [f"{label} n={n}", b.compulsory, b.capacity, b.conflict,
                 b.conflict_fraction]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    register_table(
        "E12: 3C decomposition of L1 misses (standard algorithm)",
        format_table(
            ["config", "compulsory", "capacity", "conflict", "conflict frac"],
            rows,
        ),
    )
    by = {r[0]: r for r in rows}
    assert by["LC n=256"][4] > 0.7  # pathological size: conflict-dominated
    assert by["LC n=256"][3] > 10 * by["LC n=250"][3]
    assert by["LZ n=256"][4] < 0.4  # recursive layout: conflicts gone


def test_e13_associativity_sensitivity(benchmark):
    """E13 (ours): how much of the paper's win is direct-mapped-specific?

    Replays the Figure 5 endpoints on an 8-way-associative "modern"
    geometry.  Expectation: associativity absorbs part of the canonical
    layout's conflict pathology, shrinking (but not erasing) the
    recursive layouts' advantage — the historical trajectory of this
    research line.
    """
    from repro.memsim.machine import modern_like

    machines = {"direct-mapped": ultrasparc_like(), "8-way": modern_like()}

    def run():
        rows = []
        for mname, mach in machines.items():
            for n in (250, 256):
                flops = 2.0 * n**3
                (lc,) = cached_synthetic_stats(
                    "dense_standard", [mach], n=n, tile=16, include_tlb=False
                )
                (lz,) = cached_multiply_stats(
                    "standard", "LZ", n, 16, [mach], depth=4, include_tlb=False
                )
                rows.append(
                    [mname, n, lc.cycles / flops, lz.cycles / flops,
                     lc.cycles / lz.cycles * (1.0)]
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    register_table(
        "E13: associativity sensitivity (standard algorithm, sim cycles/flop)",
        format_table(
            ["machine", "n", "L_C", "L_Z", "L_C / L_Z"], rows
        ),
    )
    by = {(r[0], r[1]): r for r in rows}
    # Pathological-size advantage of L_Z shrinks with associativity...
    adv_direct = by[("direct-mapped", 256)][4]
    adv_modern = by[("8-way", 256)][4]
    assert adv_modern < adv_direct
    # ...but the canonical pathology does not fully disappear at 8-way.
    assert by[("8-way", 256)][2] > 1.5 * by[("8-way", 250)][2]
