"""The observability layer: spans, metrics, manifests, disabled-mode cost."""

import json
import threading

import pytest

from repro import obs
from repro.obs.core import NULL_SPAN


@pytest.fixture
def obs_on():
    """Enable obs with clean state; restore disabled+clean afterwards."""
    was = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    yield
    obs.set_enabled(was)
    obs.reset()


@pytest.fixture
def obs_off():
    was = obs.enabled()
    obs.set_enabled(False)
    obs.reset()
    yield
    obs.set_enabled(was)
    obs.reset()


class TestSpans:
    def test_disabled_returns_shared_null_span(self, obs_off):
        s = obs.span("anything", n=1)
        assert s is NULL_SPAN
        with s:
            pass
        assert obs.collector().spans() == []

    def test_records_name_attrs_duration(self, obs_on):
        with obs.span("fig4.point", n=64, tile=8):
            pass
        (rec,) = obs.collector().spans()
        assert rec["name"] == "fig4.point"
        assert rec["attrs"] == {"n": 64, "tile": 8}
        assert rec["dur"] >= 0.0
        assert rec["parent"] is None

    def test_nesting_sets_parent(self, obs_on):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.collector().spans()
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None

    def test_set_updates_attrs(self, obs_on):
        with obs.span("s") as sp:
            sp.set(extra=7)
        (rec,) = obs.collector().spans()
        assert rec["attrs"]["extra"] == 7

    def test_span_closed_on_exception(self, obs_on):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        (rec,) = obs.collector().spans()
        assert rec["name"] == "boom"
        # Parent stack unwound: the next span is a root again.
        with obs.span("after"):
            pass
        assert obs.collector().spans()[-1]["parent"] is None

    def test_counts_and_totals(self, obs_on):
        for _ in range(3):
            with obs.span("a"):
                pass
        with obs.span("b"):
            pass
        assert obs.collector().counts() == {"a": 3, "b": 1}
        assert set(obs.collector().totals()) == {"a", "b"}

    def test_thread_safety_and_per_thread_parents(self, obs_on):
        def worker():
            with obs.span("t.outer"):
                with obs.span("t.inner"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        recs = obs.collector().spans()
        assert len(recs) == 16
        inners = [r for r in recs if r["name"] == "t.inner"]
        outers = {r["id"]: r for r in recs if r["name"] == "t.outer"}
        for r in inners:
            # Each inner's parent is an outer from the *same* thread.
            assert outers[r["parent"]]["tid"] == r["tid"]

    def test_export_jsonl(self, obs_on, tmp_path):
        with obs.span("x", k=1):
            pass
        path = obs.collector().export_jsonl(tmp_path / "spans.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["name"] == "x" and rec["attrs"] == {"k": 1}


class TestMetrics:
    def test_disabled_is_noop(self, obs_off):
        obs.add("c", 5)
        obs.gauge("g", 1.0)
        obs.observe("h", 2.0)
        snap = obs.registry().snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_counter_gauge_histogram(self, obs_on):
        obs.add("c")
        obs.add("c", 4)
        obs.gauge("g", 2.5)
        for v in (1.0, 3.0):
            obs.observe("h", v)
        snap = obs.registry().snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        h = snap["histograms"]["h"]
        assert h["count"] == 2 and h["total"] == 4.0
        assert h["min"] == 1.0 and h["max"] == 3.0 and h["mean"] == 2.0
        assert h["samples"] == 2 and h["sample_values"] == [1.0, 3.0]
        # Nearest-rank at n=2: p50 is the first sorted sample, p90/p99
        # are the maximum — observed values, never interpolated.
        assert h["p50"] == 1.0 and h["p90"] == 3.0 and h["p99"] == 3.0

    def test_counter_rejects_negative(self, obs_on):
        with pytest.raises(ValueError):
            obs.registry().counter("c").inc(-1)

    def test_render_report_mentions_everything(self, obs_on):
        obs.add("memsim.store.profile_hits", 3)
        with obs.span("fig5.point", n=16):
            pass
        text = obs.render_report()
        assert "trace cache" in text
        assert "root:" in text and "profiles:" in text
        assert "fig5.point" in text
        assert "memsim.store.profile_hits = 3" in text


class TestStatsPublishing:
    def test_memory_stats_publish(self, obs_on):
        from repro.memsim.hierarchy import MemoryStats

        MemoryStats(100, 10, 5, 1, 1234.0).publish()
        snap = obs.registry().snapshot()
        assert snap["counters"]["memsim.accesses"] == 100
        assert snap["counters"]["memsim.l1_misses"] == 10
        assert snap["histograms"]["memsim.l1_miss_rate"]["mean"] == pytest.approx(0.1)

    def test_schedule_result_publish(self, obs_on):
        from repro.runtime.scheduler import ScheduleResult

        ScheduleResult(
            makespan=10.0, n_workers=2, busy_time=18.0, steals=3, failed_steals=1
        ).publish("scheduler.ws")
        snap = obs.registry().snapshot()
        assert snap["counters"]["scheduler.ws.steals"] == 3
        rate = snap["histograms"]["scheduler.ws.steal_success_rate"]
        assert rate["mean"] == pytest.approx(0.75)

    def test_store_publishes_hit_miss_counters(self, obs_on, tmp_path):
        from repro.memsim.machine import scaled
        from repro.memsim.store import TraceStore, cached_synthetic_stats

        store = TraceStore(root=tmp_path)
        machine = scaled()
        cached_synthetic_stats("dense_standard", machine, store=store, n=16, tile=8)
        cached_synthetic_stats("dense_standard", machine, store=store, n=16, tile=8)
        snap = obs.registry().snapshot()
        assert snap["counters"]["memsim.store.profile_misses"] == 1
        assert snap["counters"]["memsim.store.profile_hits"] == 1
        assert snap["counters"]["memsim.simulations"] == 2
        addrs = store.content_addresses()
        # One profile key, first touched by the miss that built it;
        # traces and priced stats are never stored, so never touched.
        assert len(addrs) == 1
        assert addrs[0].startswith("profile:") and addrs[0].endswith("=miss")


class TestManifest:
    def test_build_and_write(self, tmp_path):
        from repro.memsim.machine import ultrasparc_like
        from repro.memsim.store import TraceStore

        store = TraceStore(root=tmp_path / "cache")
        m = obs.build_manifest(
            command="test", argv=["x"], seed=7,
            machine=ultrasparc_like(), store=store, extra={"k": "v"},
        )
        assert m["schema_version"] == 1
        assert m["seed"] == 7
        assert m["command"] == "test"
        assert m["k"] == "v"
        assert len(m["machine"]["sha256"]) == 64
        assert m["trace_cache"]["profile_hits"] == 0
        assert set(m["trace_cache"]) == {
            "root", "profile_hits", "profile_misses", "touched_total",
            "content_addresses",
        }
        path = obs.write_manifest(tmp_path / "m.json", m)
        loaded = json.loads(path.read_text())
        assert loaded["machine"]["sha256"] == m["machine"]["sha256"]

    def test_machine_fingerprint_is_stable(self):
        from repro.memsim.machine import ultrasparc_like
        from repro.obs.manifest import machine_fingerprint

        a = machine_fingerprint(ultrasparc_like())
        b = machine_fingerprint(ultrasparc_like())
        assert a["sha256"] == b["sha256"]

    def test_git_revision_shape(self):
        from repro.obs.manifest import git_revision

        rev = git_revision()
        if rev is not None:  # repo checkouts in CI may differ
            assert len(rev["sha"]) == 40

    def test_obs_section_present_when_enabled(self, obs_on):
        with obs.span("s"):
            pass
        m = obs.build_manifest(store=False)
        assert m["obs"]["span_counts"] == {"s": 1}


class TestDisabledOverhead:
    def test_instrumented_paths_record_nothing_when_off(self, obs_off):
        from repro.analysis.experiments import fig2_layouts
        from repro.analysis.timing import measure

        fig2_layouts(2)
        measure(lambda: None, repeats=1, warmup=0)
        assert obs.collector().spans() == []
        snap = obs.registry().snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}


class TestSpanJsonlReading:
    def test_missing_file_raises_clear_error(self, tmp_path):
        with pytest.raises(obs.SpanReadError, match="not found"):
            obs.read_spans_jsonl(tmp_path / "nope.jsonl")

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text(
            '{"id": 1, "name": "good", "dur": 1.0}\n'
            "{truncated by a killed worker\n"
            "\n"
            "[1, 2, 3]\n"
            '{"id": 2, "name": "also_good", "dur": 0.5}\n'
        )
        records, skipped = obs.read_spans_jsonl(path)
        assert [r["name"] for r in records] == ["good", "also_good"]
        assert skipped == 2

    def test_load_spans_jsonl_drops_the_count(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text('{"id": 1, "name": "s", "dur": 1.0}\nbad\n')
        assert len(obs.load_spans_jsonl(path)) == 1

    def test_percentiles_validate_range(self):
        from repro.obs.metrics import Histogram

        h = Histogram()
        assert h.percentile(50) is None  # nothing retained
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_nearest_rank_small_samples(self):
        from repro.obs.metrics import Histogram

        h = Histogram()
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            h.observe(v)
        # nearest-rank over n=5: rank(p) = ceil(p/100 * 5)
        assert h.percentile(50) == 3.0
        assert h.percentile(90) == 5.0
        assert h.percentile(99) == 5.0
        assert h.percentile(20) == 1.0

    def test_rendered_report_carries_samples_count(self, obs_on):
        for v in (1.0, 2.0, 3.0):
            obs.observe("h.seconds", v)
        text = obs.render_report()
        assert "samples=3" in text
        assert "p50=2" in text

    def test_sample_buffer_caps(self):
        from repro.obs.metrics import Histogram

        h = Histogram()
        for i in range(Histogram.MAX_SAMPLES + 100):
            h.observe(float(i))
        assert h.count == Histogram.MAX_SAMPLES + 100
        assert len(h.samples) == Histogram.MAX_SAMPLES
