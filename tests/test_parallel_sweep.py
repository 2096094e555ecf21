"""Unit tests for :mod:`repro.analysis.parallel`.

Covers the sweep decomposition (every point is picklable, satellite of
the parallel-executor issue), worker-count resolution, the serial
fast path, pool==serial row equality under both ``fork`` and ``spawn``
start methods, the worker-side plumbing (run in-process here so its
behaviour is asserted directly), and the parent-side merge of trace
store counters, spans, and metrics.
"""

import json
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.analysis.parallel as par
from repro import obs
from repro.analysis.parallel import (
    POINT_FUNCTIONS,
    SweepPoint,
    fig4_points,
    fig5_points,
    fig6_points,
    fig6ms_points,
    fig6sim_points,
    make_point,
    merge_payloads,
    resolve_jobs,
    run_point,
    run_sweep,
)
from repro.matrix.tile import TileRange
from repro.memsim import store as store_mod
from repro.memsim.machine import scaled, ultrasparc_like
from repro.memsim.store import TraceStore, cached_multiply_stats, default_store
from repro.obs.core import SpanCollector
from repro.obs.metrics import MetricsRegistry

MACH = scaled(4)

#: Small but complete grids from every generator, used by the pickle
#: and registry tests below.
GRIDS = {
    "fig4": fig4_points(
        n=32, tiles=(4, 8), algorithm="standard", layout="LZ", repeats=1,
        machine=MACH, include_memsim=True,
    ),
    "fig5": fig5_points(n_values=(56, 64), tile=8, machine=MACH),
    "fig6": fig6_points(
        n=32, algorithms=("strassen",), layouts=("LZ", "LH"), procs=(1, 2),
        trange=TileRange(8, 16), repeats=1,
    ),
    "fig6sim": fig6sim_points(
        n=32, tile=8, algorithms=("standard",), layouts=("LC", "LZ"),
        machine=MACH,
    ),
    "fig6ms": fig6ms_points(
        n=32, tile=8, algorithms=("standard",), layouts=("LC", "LZ"),
        l1_assocs=(1, 2), l2_assocs=(1,), tlb_entries=(8,),
    ),
}


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """Route the process-wide default store at a private empty root."""
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(store_mod, "_DEFAULT", None)
    yield default_store()


@pytest.fixture
def obs_on(tmp_path, monkeypatch):
    """Enable observability against a private output dir, reset around."""
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    was = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    yield tmp_path / "obs"
    obs.reset()
    obs.set_enabled(was)


# -- decomposition ------------------------------------------------------

class TestSweepPoints:
    @pytest.mark.parametrize("fig", sorted(GRIDS))
    def test_every_point_pickles_round_trip(self, fig):
        for point in GRIDS[fig]:
            clone = pickle.loads(pickle.dumps(point))
            assert clone == point
            assert clone.kwargs() == point.kwargs()

    @pytest.mark.parametrize("fig", sorted(GRIDS))
    def test_points_are_canonically_indexed(self, fig):
        points = GRIDS[fig]
        assert [p.index for p in points] == list(range(len(points)))
        assert all(p.fig == fig for p in points)
        assert all(p.fn in POINT_FUNCTIONS for p in points)

    def test_params_are_key_sorted(self):
        p = make_point("fig4", 0, "fig4.point", z=1, a=2)
        assert [k for k, _ in p.params] == ["a", "z"]
        # Equal kwargs in any construction order -> equal (hashable) points.
        assert p == make_point("fig4", 0, "fig4.point", a=2, z=1)
        assert hash(p) == hash(make_point("fig4", 0, "fig4.point", a=2, z=1))

    def test_none_means_the_driver_default(self):
        """The generators resolve the drivers' ``None`` defaults, so a
        driver and the service build the same grid from them."""
        fig4 = fig4_points(
            n=32, tiles=None, algorithm="standard", layout="LZ", repeats=1,
            machine=None, include_memsim=False,
        )
        assert [p.kwargs()["tile"] for p in fig4] == [4, 8, 16, 32]
        assert fig4[0].kwargs()["machine"] == ultrasparc_like()
        fig5 = fig5_points(n_values=None, tile=16, machine=None)
        assert [p.kwargs()["n"] for p in fig5] == list(range(248, 281, 4))
        fig6 = fig6_points(
            n=32, algorithms=("standard",), layouts=("LZ",), procs=(1,),
            trange=None, repeats=1,
        )
        assert fig6[0].kwargs()["trange"] == TileRange()

    def test_make_point_rejects_unknown_function(self):
        with pytest.raises(KeyError, match="unknown point function"):
            make_point("fig9", 0, "fig9.point", n=1)

    def test_run_point_rejects_unregistered_function(self):
        bogus = SweepPoint("fig9", 0, "fig9.point", ())
        with pytest.raises(KeyError, match="not registered"):
            run_point(bogus)


# -- worker-count resolution -------------------------------------------

class TestResolveJobs:
    def test_explicit_arg_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 5 ")
        assert resolve_jobs() == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        import os

        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="must be an integer"):
            resolve_jobs()

    @pytest.mark.parametrize("bad", [0, -2])
    def test_sub_one_rejected(self, bad):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_jobs(bad)


# -- execution ----------------------------------------------------------

class TestRunSweep:
    def test_empty_sweep(self):
        assert run_sweep([], jobs=4) == []

    def test_jobs_one_never_constructs_a_pool(self, monkeypatch, fresh_store):
        def explode(*a, **k):
            raise AssertionError("serial path must not build a pool")

        monkeypatch.setattr(par, "ProcessPoolExecutor", explode)
        rows = run_sweep(GRIDS["fig6sim"], jobs=1)
        assert [r["layout"] for r in rows] == ["LC", "LZ"]

    def test_pool_matches_serial(self, fresh_store):
        serial = run_sweep(GRIDS["fig6sim"], jobs=1)
        pooled = run_sweep(GRIDS["fig6sim"], jobs=2)
        assert pooled == serial

    def test_spawn_context_pool_matches_serial(self, fresh_store):
        """Points resolve in a ``spawn`` worker, which inherits nothing:
        the string-keyed registry plus import-time registration is what
        makes this work."""
        ctx = multiprocessing.get_context("spawn")

        def factory(n):
            return ProcessPoolExecutor(
                max_workers=n, mp_context=ctx,
                initializer=par._pool_init, initargs=(False, None),
            )

        serial = run_sweep(GRIDS["fig6sim"], jobs=1)
        pooled = run_sweep(GRIDS["fig6sim"], jobs=2, executor_factory=factory)
        assert pooled == serial

    def test_jobs_capped_at_point_count(self, fresh_store):
        seen = []

        def factory(n):
            seen.append(n)
            return ProcessPoolExecutor(max_workers=n)

        run_sweep(GRIDS["fig6sim"], jobs=32, executor_factory=factory)
        assert seen == [len(GRIDS["fig6sim"])]

    def test_fig6ms_pool_matches_serial(self, fresh_store):
        serial = run_sweep(GRIDS["fig6ms"], jobs=1)
        pooled = run_sweep(GRIDS["fig6ms"], jobs=2)
        assert pooled == serial

    def test_fig6ms_point_is_one_trace(self, fresh_store):
        """A fig6ms point carries its trace's whole machine grid and
        returns one row per machine from one profile build."""
        points = GRIDS["fig6ms"]
        assert [p.kwargs()["layout"] for p in points] == ["LC", "LZ"]
        machines = points[0].kwargs()["machines"]
        assert [m.l1.assoc for m in machines] == [1, 2]
        rows = run_point(points[0])
        assert [r["l1_assoc"] for r in rows] == [1, 2]
        assert fresh_store.counters() == {
            "profile_hits": 0, "profile_misses": 1, "profile_rebuilds": 0
        }


# -- worker-side plumbing (exercised in-process) -----------------------

class TestWorkerCall:
    def test_payload_without_obs(self, fresh_store, monkeypatch):
        monkeypatch.setattr(par, "_WORKER_DIR", None)
        par._pool_init(False, None)
        point = GRIDS["fig6sim"][0]
        payload = par._worker_call(point)
        assert payload["index"] == point.index
        assert payload["row"] == run_point(point)
        # Cold miss on first call, then the second task's delta is a
        # pure hit: counters are reset per task, so deltas are exact.
        assert payload["store_counters"]["profile_misses"] == 1
        again = par._worker_call(point)
        assert again["store_counters"] == {
            "profile_hits": 1, "profile_misses": 0, "profile_rebuilds": 0
        }
        assert all(v == "hit" for v in again["store_touched"].values())
        assert "spans" not in payload and "metrics" not in payload

    def test_payload_with_obs_writes_worker_jsonl(
        self, fresh_store, obs_on, tmp_path, monkeypatch
    ):
        import os

        worker_dir = tmp_path / "workers"
        monkeypatch.setattr(par, "_WORKER_DIR", None)
        par._pool_init(True, str(worker_dir))
        payload = par._worker_call(GRIDS["fig6sim"][1])
        names = [rec["name"] for rec in payload["spans"]]
        assert "fig6sim.point" in names
        assert payload["metrics"]["counters"]["memsim.store.profile_misses"] == 1
        path = worker_dir / f"spans-worker-{os.getpid()}.jsonl"
        assert path.exists()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["name"] for rec in lines] == names


# -- parent-side merge --------------------------------------------------

class TestMerge:
    def test_store_counter_merge_side_effect(self, fresh_store):
        points = [make_point("fig9", i, "fig6sim.point") for i in range(2)]
        payloads = [
            {"index": 1, "row": {"v": 1},
             "store_counters": {"profile_hits": 2, "profile_misses": 1},
             "store_touched": {"profile:aa": "hit"}},
            {"index": 0, "row": {"v": 0},
             "store_counters": {"profile_hits": 1},
             "store_touched": {"profile:aa": "miss", "profile:bb": "miss"}},
        ]
        rows = merge_payloads(points, payloads)
        assert rows == [{"v": 0}, {"v": 1}]
        assert fresh_store.profile_hits == 3
        assert fresh_store.profile_misses == 1
        # First-touch wins in *point* order, not completion order: the
        # index-1 payload arrived first but merges second, so index 0's
        # verdict for the shared key sticks.
        assert fresh_store.touched_map()["profile:aa"] == "miss"
        assert fresh_store.touched_map()["profile:bb"] == "miss"

    def test_obs_merge_side_effect(self, fresh_store, obs_on):
        payload = {
            "index": 0,
            "row": {},
            "store_counters": {},
            "store_touched": {},
            "spans": [
                {"id": 1, "parent": None, "name": "w.outer", "dur": 1.0},
                {"id": 2, "parent": 1, "name": "w.inner", "dur": 0.5},
            ],
            "metrics": {"counters": {"w.count": 3}, "gauges": {},
                        "histograms": {}},
        }
        point = make_point("fig9", 0, "fig6sim.point")
        merge_payloads([point], [payload])
        counts = obs.collector().counts()
        assert counts["w.outer"] == 1 and counts["w.inner"] == 1
        assert obs.registry().snapshot()["counters"]["w.count"] == 3

    def test_duplicate_index_rejected(self):
        point = make_point("fig9", 0, "fig6sim.point")
        dup = [{"index": 0, "row": {}}, {"index": 0, "row": {}}]
        with pytest.raises(RuntimeError, match="duplicate"):
            merge_payloads([point], dup)

    def test_missing_index_rejected(self):
        points = [make_point("fig9", i, "fig6sim.point") for i in range(2)]
        with pytest.raises(RuntimeError, match="never completed"):
            merge_payloads(points, [{"index": 0, "row": {}}])


class TestSpanCollectorMerge:
    def test_ids_remapped_without_collision(self):
        coll = SpanCollector()
        coll.record({"id": coll.next_id(), "parent": None, "name": "local"})
        # Workers record children before parents (spans close inner-out).
        incoming = [
            {"id": 2, "parent": 1, "name": "child"},
            {"id": 1, "parent": None, "name": "parent"},
        ]
        coll.merge(incoming)
        spans = {rec["name"]: rec for rec in coll.spans()}
        assert len({rec["id"] for rec in coll.spans()}) == 3
        assert spans["child"]["parent"] == spans["parent"]["id"]
        assert spans["parent"]["parent"] is None
        # A parent id that never appears in the batch maps to None
        # rather than aliasing a local span.
        coll.merge([{"id": 9, "parent": 77, "name": "orphan"}])
        orphan = [r for r in coll.spans() if r["name"] == "orphan"][0]
        assert orphan["parent"] is None


class TestMetricsRegistryMerge:
    def test_counters_add_gauges_last_histograms_combine(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(4.0)
        reg.merge({
            "counters": {"c": 3, "new": 1},
            "gauges": {"g": 9.0},
            "histograms": {
                "h": {"count": 2, "total": 2.0, "min": 0.5, "max": 1.5},
                "empty": {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0},
            },
        })
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 5, "new": 1}
        assert snap["gauges"]["g"] == 9.0
        h = snap["histograms"]["h"]
        assert h["count"] == 3 and h["total"] == 6.0
        assert h["min"] == 0.5 and h["max"] == 4.0
        # count==0 summaries merge as no-ops instead of poisoning min/max.
        assert snap["histograms"]["empty"]["count"] == 0


# -- end to end: pooled sweep with obs enabled -------------------------

class TestPooledObs:
    def test_pool_run_merges_spans_metrics_and_store(self, fresh_store, obs_on):
        points = GRIDS["fig6sim"]
        rows = run_sweep(points, jobs=2)
        assert len(rows) == len(points)
        counts = obs.collector().counts()
        assert counts.get("sweep.pool") == 1
        assert counts.get("fig6sim.point") == len(points)
        snap = obs.registry().snapshot()
        assert snap["counters"]["memsim.store.profile_misses"] == len(points)
        assert snap["gauges"]["sweep.jobs"] == 2
        # Cold sweep: every point (one trace each) was a profile miss,
        # merged from workers.
        assert fresh_store.profile_misses == len(points)
        assert len(fresh_store.touched_map()) >= len(points)
        worker_files = list((obs_on / "workers").glob("spans-worker-*.jsonl"))
        assert worker_files, "workers wrote no span JSONL files"
        names = [
            json.loads(line)["name"]
            for f in worker_files
            for line in f.read_text().splitlines()
        ]
        assert names.count("fig6sim.point") == len(points)

    def test_worker_rebuild_is_summed_in_the_parent(self, fresh_store, obs_on):
        """A worker that finds a stored profile too narrow for its grid
        rebuilds it wider; that rebuild reaches the parent's store
        counters and the merged metrics."""
        points = GRIDS["fig6ms"]
        kw = points[0].kwargs()
        # Another handle on the same root stores LC's profile for the
        # 1-way machine only; the parent's own memo stays empty.
        cached_multiply_stats(
            kw["algorithm"], kw["layout"], kw["n"], kw["tile"],
            kw["machines"][:1], store=TraceStore(root=fresh_store.root),
        )
        obs.reset()
        run_sweep(points, jobs=2)
        assert fresh_store.counters() == {
            "profile_hits": 0, "profile_misses": 2, "profile_rebuilds": 1
        }
        counters = obs.registry().snapshot()["counters"]
        assert counters["memsim.store.profile_rebuilds"] == 1
        assert counters["memsim.store.profile_misses"] == 2
