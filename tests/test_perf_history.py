"""Benchmark history store (repro.perf.history)."""

import json

import pytest

from repro.perf.history import (
    HistoryStore,
    as_stream_name,
    build_record,
    flatten_metrics,
    history_enabled,
    manifest_core,
    record_from_obs,
    span_self_times,
)

NESTED = {
    "trace": {"accesses": 1000, "expand_seconds": 1.25,
              "warm_expand_seconds": 0.01, "layout": "LZ"},
    "engines": {
        "set_associative_8way": {"speedup": 10.0, "accesses_per_sec": 5.0e6,
                                 "seconds": 0.2},
    },
    "trace_synthesis": {"events": 500, "speedup": 7.0, "grid": ["a/b"]},
    "parallel_sweep": {"speedup": 2.0, "jobs": 4},
}
MANIFEST = {
    "command": "fig4",
    "git": {"sha": "abc123", "dirty": False},
    "machine": {"sha256": "m1", "cpu_count": 8},
    "knobs": {"REPRO_OBS": "1"},
    "timestamp_unix": 1.0,
}


def nested_record() -> dict:
    return build_record(flatten_metrics(NESTED), source="cli:fig4",
                        manifest=MANIFEST)


class TestFlatten:
    def test_numeric_scalars_only(self):
        flat = flatten_metrics(NESTED)
        assert flat["trace.accesses"] == 1000
        assert flat["engines.set_associative_8way.speedup"] == 10.0
        # strings and lists are dropped
        assert "trace.layout" not in flat
        assert "trace_synthesis.grid" not in flat

    def test_bools_are_not_metrics(self):
        assert flatten_metrics({"a": {"ok": True, "n": 2}}) == {"a.n": 2}


class TestRecord:
    def test_content_addressed_and_provenance_linked(self):
        rec = nested_record()
        assert rec["source"] == "cli:fig4"
        assert rec["manifest"]["git"]["sha"] == "abc123"
        assert rec["manifest"]["machine_sha256"] == "m1"
        # volatile manifest fields stay out of the content address
        assert "timestamp_unix" not in rec["manifest"]
        again = nested_record()
        assert rec["record_id"] == again["record_id"]

    def test_record_id_tracks_metric_changes(self):
        a = build_record({"x": 1.0}, source="s")
        b = build_record({"x": 2.0}, source="s")
        assert a["record_id"] != b["record_id"]

    def test_span_self_times_shape(self):
        spans = [
            {"id": 1, "parent": None, "name": "outer", "dur": 3.0},
            {"id": 2, "parent": 1, "name": "inner", "dur": 1.0},
        ]
        table = span_self_times(spans)
        assert table["outer"] == {"count": 1, "total_s": 3.0, "self_s": 2.0}
        assert table["inner"]["self_s"] == 1.0

    def test_manifest_core_of_none(self):
        assert manifest_core(None) == {}


class TestStreamNames:
    def test_source_to_stream(self):
        assert as_stream_name("benchmarks") == "benchmarks"
        assert as_stream_name("cli:fig4") == "cli"
        assert as_stream_name("serve:session@best-of-3") == "serve"
        assert as_stream_name("weird/../name") == "weird____name"  # no traversal
        assert as_stream_name("::") == "adhoc"

    def test_store_rejects_bad_stream_names(self, tmp_path):
        store = HistoryStore(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.path(bad)


class TestStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = HistoryStore(tmp_path)
        rec = nested_record()
        path = store.append(rec, stream="benchmarks")
        assert path == tmp_path / "benchmarks.jsonl"
        assert store.load("benchmarks") == [rec]
        assert store.streams() == ["benchmarks"]

    def test_append_requires_record_id(self, tmp_path):
        with pytest.raises(ValueError, match="record_id"):
            HistoryStore(tmp_path).append({"metrics": {}}, stream="s")

    def test_malformed_lines_skipped(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(nested_record(), stream="benchmarks")
        with open(tmp_path / "benchmarks.jsonl", "a") as fh:
            fh.write("{truncated\n\n[1,2]\n")
        assert len(store.load("benchmarks")) == 1

    def test_find_by_prefix(self, tmp_path):
        store = HistoryStore(tmp_path)
        rec = nested_record()
        store.append(rec, stream="benchmarks")
        assert store.find(rec["record_id"][:10]) == rec
        assert store.find("ffff") is None

    def test_series_orders_and_links(self, tmp_path):
        store = HistoryStore(tmp_path)
        for i, speedup in enumerate((7.0, 8.0, 9.0)):
            rec = build_record(
                {"trace_synthesis.speedup": speedup}, source="benchmarks",
                manifest={"git": {"sha": f"sha{i}"}},
            )
            rec["created_unix"] = float(i)  # force a known order
            store.append(rec, stream="benchmarks")
        pts = store.series("trace_synthesis.speedup")
        assert [p["value"] for p in pts] == [7.0, 8.0, 9.0]
        assert pts[0]["git_sha"] == "sha0"
        assert all(p["record_id"] for p in pts)

    def test_load_merges_streams_by_time(self, tmp_path):
        store = HistoryStore(tmp_path)
        a = build_record({"x": 1.0}, source="benchmarks")
        b = build_record({"x": 2.0}, source="cli:fig4")
        a["created_unix"], b["created_unix"] = 2.0, 1.0
        store.append(a, stream="benchmarks")
        store.append(b, stream="cli")
        assert [r["metrics"]["x"] for r in store.load()] == [2.0, 1.0]

    def test_latest_window(self, tmp_path):
        store = HistoryStore(tmp_path)
        for i in range(5):
            rec = build_record({"x": float(i)}, source="s")
            rec["created_unix"] = float(i)
            store.append(rec, stream="adhoc")
        window = store.latest(stream="adhoc", n=2)
        assert [r["metrics"]["x"] for r in window] == [3.0, 4.0]


class TestKnobs:
    def test_history_dir_knob_relocates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_HISTORY_DIR", str(tmp_path / "h"))
        assert HistoryStore().root == tmp_path / "h"

    def test_history_flag_disables(self, monkeypatch):
        assert history_enabled()
        monkeypatch.setenv("REPRO_PERF_HISTORY", "0")
        assert not history_enabled()


class TestRecordFromObs:
    def test_collects_registry_and_cache_counters(self, monkeypatch):
        from repro import obs

        obs.set_enabled(True)
        obs.reset()
        try:
            obs.add("convert.count", 2)
            obs.observe("convert.seconds", 0.5)
            with obs.span("unit.work"):
                pass
            rec = record_from_obs(source="cli:fig4",
                                  extra_metrics={"extra": {"v": 1}})
            assert rec["metrics"]["convert.count"] == 2
            assert rec["metrics"]["convert.seconds.mean"] == 0.5
            assert rec["metrics"]["extra.v"] == 1
            assert any(k.startswith("trace_cache.") for k in rec["metrics"])
            assert "unit.work" in rec["spans"]
        finally:
            obs.reset()
            obs.set_enabled(False)


class TestOnDiskFormat:
    def test_one_canonical_json_object_per_line(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(nested_record(), stream="benchmarks")
        store.append(nested_record(), stream="benchmarks")
        lines = (tmp_path / "benchmarks.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert rec["schema_version"] == 1
            assert set(rec) >= {"record_id", "created_unix", "source",
                                "metrics", "manifest"}
