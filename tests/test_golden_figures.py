"""Golden-figure regression tests: the sweep drivers are deterministic.

Small-grid outputs of the fig4/fig5/fig6/fig6sim drivers are committed
as JSON under ``tests/golden/``.  Each test regenerates its grid with
``REPRO_DETERMINISTIC_TIMING=1`` (wall-clock fields collapse to 0.0 —
everything else is exact simulation) and asserts the serialized rows are
*byte-identical* to the golden file — first serially, then under
``REPRO_JOBS=2`` and ``REPRO_JOBS=4`` process pools, which proves the
parallel executor's determinism contract end to end: same rows, same
order, same bytes, regardless of worker count or completion order.

Regenerate after an intentional modeling change with::

    python -m pytest tests/test_golden_figures.py --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    fig4_tile_size_sweep,
    fig5_robustness,
    fig6_layout_comparison,
    fig6_machine_scaling,
    fig6_simulated,
)
from repro.matrix.tile import TileRange
from repro.memsim.hierarchy import simulate_hierarchy
from repro.memsim.machine import scaled
from repro.memsim.trace import expand_trace, trace_multiply

GOLDEN_DIR = Path(__file__).parent / "golden"

MACH = scaled(4)

#: name -> driver thunk; every thunk takes only ``jobs`` so the serial
#: and parallel tests run the exact same grid.
CASES = {
    "fig4": lambda jobs: fig4_tile_size_sweep(
        n=32, tiles=(4, 8), repeats=1, machine=MACH, include_memsim=True,
        jobs=jobs,
    ),
    "fig5": lambda jobs: fig5_robustness(
        n_values=(56, 60, 64), tile=8, machine=MACH, jobs=jobs,
    ),
    "fig6": lambda jobs: fig6_layout_comparison(
        n=32, algorithms=("strassen",), layouts=("LZ", "LH"), procs=(1, 2),
        trange=TileRange(8, 16), repeats=1, jobs=jobs,
    ),
    "fig6sim": lambda jobs: fig6_simulated(
        n=48, tile=8, algorithms=("standard", "strassen"),
        layouts=("LC", "LZ"), machine=MACH, jobs=jobs,
    ),
    "fig6ms": lambda jobs: fig6_machine_scaling(
        n=32, tile=8, algorithms=("standard", "strassen"),
        layouts=("LC", "LZ"), l1_assocs=(1, 2), l2_assocs=(1, 2),
        tlb_entries=(8,), jobs=jobs,
    ),
}


def _serialize(rows) -> bytes:
    return (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode()


@pytest.fixture(autouse=True)
def _deterministic_timing(monkeypatch):
    # Workers inherit os.environ, so the flag reaches the pool too.
    monkeypatch.setenv("REPRO_DETERMINISTIC_TIMING", "1")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_serial(name, request):
    """Serial driver output matches the committed golden bytes."""
    blob = _serialize(CASES[name](1))
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        pytest.skip(f"updated {path}")
    assert path.exists(), (
        f"missing golden file {path}; run with --update-golden to create it"
    )
    assert path.read_bytes() == blob, (
        f"{name} driver output drifted from {path}; if the change is "
        f"intentional, rerun with --update-golden"
    )


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_parallel(name, jobs, request):
    """Process-pool output is byte-identical to the golden (serial) bytes."""
    if request.config.getoption("--update-golden"):
        pytest.skip("golden files update from the serial run only")
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden file {path}"
    assert path.read_bytes() == _serialize(CASES[name](jobs))


#: The memsim-backed figures: every multiply trace they simulate comes
#: from the symbolic synthesizer, or from the executed tracer when a
#: test swaps it in.
SIM_CASES = ("fig4", "fig5", "fig6sim", "fig6ms")


@pytest.fixture
def empty_store(tmp_path, monkeypatch):
    """Route the default store at an empty root; forked pool workers
    inherit the environment, so they share it."""
    from repro.memsim import store as store_mod

    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.setattr(store_mod, "_DEFAULT", None)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("synthesis", ["1", "0"])
@pytest.mark.parametrize("name", SIM_CASES)
def test_golden_synthesis_toggle(
    name, synthesis, jobs, monkeypatch, request, empty_store
):
    """Goldens hold byte-identical from either trace source, serially
    and under a 2-worker pool.

    ``synthesis="1"`` runs the store's own builder (symbolic synthesis);
    ``"0"`` swaps it for the executed-tracer oracle (``trace_multiply``
    + ``expand_trace``), which forked pool workers inherit.  Every case
    starts from an empty store, so it builds each trace instead of
    reading a stored profile, and the serial oracle case counts tracer
    calls so it cannot pass vacuously.
    """
    if request.config.getoption("--update-golden"):
        pytest.skip("golden files update from the serial run only")
    from repro.memsim import store as store_mod

    calls = []
    if synthesis == "0":

        def executed(algorithm, layout, n, tile, machine, mode, depth):
            def build():
                calls.append(algorithm)
                events, sizes = trace_multiply(
                    algorithm, layout, n, tile, mode=mode, depth=depth
                )
                return expand_trace(events, machine, sizes)

            return build

        monkeypatch.setattr(store_mod, "_multiply_builder", executed)
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden file {path}"
    assert path.read_bytes() == _serialize(CASES[name](jobs))
    if synthesis == "0" and jobs == 1:
        assert calls, "no multiply trace came from the executed tracer"


def _no_trace(self, fields, build):
    raise AssertionError(f"the warm store rebuilt the trace of {fields}")


def _simulate(self, fields, machines, include_tlb, build_trace):
    # The pricing oracle: the freshly built trace on simulate_hierarchy,
    # capped at each machine's own associativities and TLB size.
    addresses = self.trace(fields, build_trace)
    out = [
        simulate_hierarchy(addresses, m, include_tlb=include_tlb)
        for m in machines
    ]
    for st in out:
        st.publish()
    return out


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("cache", ["1", "0"])
@pytest.mark.parametrize("name", SIM_CASES)
def test_golden_multiconfig_toggle(
    name, cache, jobs, monkeypatch, request, empty_store
):
    """Goldens hold byte-identical whether each point is priced from the
    store's multi-config profile or by the :func:`simulate_hierarchy`
    oracle, serially and under a 2-worker pool.

    ``cache="1"`` runs the figure on the empty store, then again on a
    fresh store handle over the same root with every trace build
    forbidden: the second run prices each point from a profile read
    back from its ``.npz``.  ``"0"`` replaces :meth:`TraceStore.stats`
    with the oracle, which forked pool workers inherit.
    """
    if request.config.getoption("--update-golden"):
        pytest.skip("golden files update from the serial run only")
    from repro.memsim import store as store_mod

    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden file {path}"
    if cache == "0":
        monkeypatch.setattr(store_mod.TraceStore, "stats", _simulate)
    assert path.read_bytes() == _serialize(CASES[name](jobs))
    if cache == "1":
        monkeypatch.setattr(store_mod.TraceStore, "trace", _no_trace)
        monkeypatch.setattr(store_mod, "_DEFAULT", None)
        assert path.read_bytes() == _serialize(CASES[name](jobs))


def test_seconds_fields_zeroed_under_deterministic_timing():
    """The flag really does zero every wall-clock-derived field."""
    rows = CASES["fig4"](1)
    assert all(r["seconds"] == 0.0 for r in rows)
    assert all(r["conversion_fraction"] == 0.0 for r in rows)
