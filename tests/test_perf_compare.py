"""Differential engine + regression gate (repro.perf.compare, repro perf)."""

import json

import pytest

from repro import knobs
from repro.__main__ import main
from repro.perf.compare import (
    MIN_SAMPLES,
    REL_FLOOR,
    best_of,
    compare_records,
    noise_band,
    render_comparison,
    render_span_diff,
)
from repro.perf.history import HistoryStore, build_record, record_from_bench

BENCH = {
    "trace": {"accesses": 1000, "expand_seconds": 1.25,
              "warm_expand_seconds": 0.01},
    "engines": {
        "set_associative_8way": {"speedup": 10.0, "accesses_per_sec": 5.0e6},
    },
    "trace_synthesis": {"events": 500, "speedup": 7.0},
    "parallel_sweep": {"speedup": 2.0},
    "provenance": {"git": {"sha": "abc123"}, "machine": {"sha256": "m1"}},
}


def perturbed(factor_key: str, factor: float) -> dict:
    """BENCH with one flattened metric multiplied by ``factor``."""
    rec = record_from_bench(BENCH)
    metrics = dict(rec["metrics"])
    metrics[factor_key] = metrics[factor_key] * factor
    return build_record(metrics, source="perf_smoke",
                        manifest={"git": {"sha": "abc123"},
                                  "machine": {"sha256": "m1"}})


class TestBudgets:
    def test_budget_table_declared(self):
        budgets = knobs.declared_budgets()
        assert "trace.expand_seconds" in budgets
        assert budgets["trace.accesses"].direction == "exact"

    def test_glob_lookup_exact_wins(self):
        b = knobs.budget_for("engines.set_associative_8way.speedup")
        assert b is not None and b.direction == "higher_better"
        assert knobs.budget_for("no.such.key") is None

    def test_declare_budget_validates(self):
        with pytest.raises(ValueError):
            knobs.declare_budget("trace.accesses", direction="exact",
                                 max_regression=0.0, doc="dup")
        with pytest.raises(ValueError):
            knobs.declare_budget("x.y", direction="sideways",
                                 max_regression=0.0, doc="bad")


class TestNoiseBands:
    def test_floor_with_thin_history(self):
        assert noise_band([1.0]) == REL_FLOOR
        assert noise_band([]) == REL_FLOOR

    def test_mad_band_widens_for_noisy_keys(self):
        noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.2] * 2
        assert len(noisy) >= MIN_SAMPLES
        assert noise_band(noisy) > REL_FLOOR

    def test_steady_history_keeps_floor(self):
        assert noise_band([1.0] * 10) == REL_FLOOR

    def test_best_of(self):
        assert best_of([3.0, 1.0, 2.0], "lower_better") == 1.0
        assert best_of([3.0, 1.0, 2.0], "higher_better") == 3.0
        assert best_of([3.0, 1.0, 2.0], "exact") == 2.0
        # No direction: the candidate's own (last) sample.
        assert best_of([3.0, 1.0, 2.0], None) == 2.0
        with pytest.raises(ValueError):
            best_of([], "lower_better")


class TestCompare:
    def test_identical_runs_pass(self):
        rec = record_from_bench(BENCH)
        cmp_ = compare_records(rec, rec, structural_only=False)
        assert cmp_["ok"]
        assert cmp_["summary"]["regressed"] == 0
        assert cmp_["summary"]["over_budget"] == []

    def test_injected_slowdown_flags_offending_key(self):
        rec = record_from_bench(BENCH)
        # The cold-expand budget is 2.0 (a 200% allowance for cold-cache
        # noise): a 2x slowdown is flagged as regressed with the key
        # named, but stays inside the budget...
        slow = perturbed("trace.expand_seconds", 2.0)
        cmp_ = compare_records(rec, slow, structural_only=False)
        assert cmp_["ok"]
        assert cmp_["keys"]["trace.expand_seconds"]["class"] == "regressed"
        # ...while a 4x slowdown bursts the budget and fails the gate.
        very_slow = perturbed("trace.expand_seconds", 4.0)
        cmp2 = compare_records(rec, very_slow, structural_only=False)
        assert not cmp2["ok"]
        assert "trace.expand_seconds" in cmp2["summary"]["over_budget"]

    def test_halved_speedup_gates(self):
        rec = record_from_bench(BENCH)
        bad = perturbed("engines.set_associative_8way.speedup", 0.5)
        cmp_ = compare_records(rec, bad, structural_only=False)
        assert not cmp_["ok"]
        assert cmp_["summary"]["over_budget"] == [
            "engines.set_associative_8way.speedup"
        ]

    def test_improvement_never_gates(self):
        rec = record_from_bench(BENCH)
        fast = perturbed("trace.expand_seconds", 0.25)
        cmp_ = compare_records(rec, fast, structural_only=False)
        assert cmp_["ok"]
        assert cmp_["keys"]["trace.expand_seconds"]["class"] == "improved"

    def test_structural_mismatch_always_gates(self):
        rec = record_from_bench(BENCH)
        drifted = perturbed("trace.accesses", 1.001)
        for structural_only in (False, True):
            cmp_ = compare_records(rec, drifted,
                                   structural_only=structural_only)
            assert not cmp_["ok"]
            assert "trace.accesses" in cmp_["summary"]["over_budget"]
            assert cmp_["keys"]["trace.accesses"]["class"] == "regressed"

    def test_deterministic_timing_skips_timing_keys(self):
        rec = record_from_bench(BENCH)
        slow = perturbed("trace.expand_seconds", 100.0)
        cmp_ = compare_records(rec, slow, structural_only=True)
        assert cmp_["ok"], "timing keys must not gate in deterministic mode"
        assert cmp_["keys"]["trace.expand_seconds"]["class"] == "skipped"
        # structural keys still compare exactly
        assert cmp_["keys"]["trace.accesses"]["class"] == "unchanged"

    def test_undirected_keys_read_changed(self):
        """A key with no budget whose name implies no direction (a hit
        count) is changed or unchanged, never regressed or improved."""
        base = build_record({"trace_cache.profile_hits": 0.0}, source="s")
        cand = build_record({"trace_cache.profile_hits": 8.0}, source="s")
        cmp_ = compare_records(base, cand, structural_only=False)
        entry = cmp_["keys"]["trace_cache.profile_hits"]
        assert entry["class"] == "changed" and entry["direction"] is None
        assert not entry["gated"] and cmp_["ok"]
        assert cmp_["summary"]["changed"] == 1
        assert cmp_["summary"]["regressed"] == cmp_["summary"]["improved"] == 0
        same = compare_records(base, base, structural_only=False)
        assert same["keys"]["trace_cache.profile_hits"]["class"] == "unchanged"
        assert "changed 1" in render_comparison(cmp_)

    def test_added_and_removed_keys_never_gate(self):
        base = build_record({"a.x": 1.0}, source="s")
        cand = build_record({"a.y": 2.0}, source="s")
        cmp_ = compare_records(base, cand, structural_only=False)
        assert cmp_["ok"]
        assert cmp_["keys"]["a.x"]["class"] == "removed"
        assert cmp_["keys"]["a.y"]["class"] == "added"

    def test_history_widens_tolerance(self):
        # A key whose trajectory is noisy gets a band wide enough to
        # absorb a move the bare floor would have called a regression.
        values = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3]
        history = [build_record({"noisy.seconds": v}, source="s")
                   for v in values]
        base = build_record({"noisy.seconds": 1.0}, source="s")
        cand = build_record({"noisy.seconds": 1.2}, source="s")
        with_hist = compare_records(base, cand, history=history,
                                    structural_only=False)
        without = compare_records(base, cand, structural_only=False)
        assert with_hist["keys"]["noisy.seconds"]["class"] == "unchanged"
        assert without["keys"]["noisy.seconds"]["class"] == "regressed"

    def test_machine_mismatch_noted(self):
        a = build_record({"x": 1.0}, source="s",
                         manifest={"machine": {"sha256": "m1"}})
        b = build_record({"x": 1.0}, source="s",
                         manifest={"machine": {"sha256": "m2"}})
        cmp_ = compare_records(a, b, structural_only=False)
        assert any("machine" in note for note in cmp_["notes"])

    def test_render_comparison_smoke(self):
        rec = record_from_bench(BENCH)
        bad = perturbed("engines.set_associative_8way.speedup", 0.5)
        text = render_comparison(compare_records(rec, bad,
                                                 structural_only=False))
        assert "OVER BUDGET" in text
        assert "engines.set_associative_8way.speedup" in text

    def test_render_span_diff_smoke(self):
        base = {"a": {"count": 1, "total_s": 2.0, "self_s": 2.0}}
        cand = {"a": {"count": 1, "total_s": 1.0, "self_s": 1.0},
                "b": {"count": 1, "total_s": 0.5, "self_s": 0.5}}
        from repro.perf.compare import compare_spans

        text = render_span_diff(compare_spans(base, cand))
        assert "a" in text and "-1.0000" in text and "b" in text


class TestRoundTrip:
    """The acceptance loop: append -> compare -> history."""

    def test_append_compare_history(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PERF_HISTORY_DIR", str(tmp_path))
        baseline_path = tmp_path / "BENCH_baseline.json"
        baseline_path.write_text(json.dumps(BENCH))
        candidate_path = tmp_path / "BENCH_memsim.json"
        candidate_path.write_text(json.dumps(BENCH))

        store = HistoryStore(tmp_path)
        store.append(record_from_bench(BENCH), stream="perf_smoke")

        # identical runs: gate passes (exit 0 / no SystemExit)
        assert main(["perf", "check", "--against", str(baseline_path),
                     "--candidate", str(candidate_path), "--json"]) == 0
        capsys.readouterr()  # drain; the written artifact is the check below
        comparison = json.loads(
            (tmp_path / "last_comparison.json").read_text()
        )
        assert comparison["ok"]

        # history gained the record and serves the trajectory
        assert len(store.load("perf_smoke")) == 1
        series = store.series("trace_synthesis.speedup")
        assert [p["value"] for p in series] == [7.0]

        # injected 2x slowdown on a gated ratio: gate fails, JSON names key
        bad = dict(json.loads(candidate_path.read_text()))
        bad["engines"]["set_associative_8way"]["speedup"] = 5.0
        candidate_path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            main(["perf", "check", "--against", str(baseline_path),
                  "--candidate", str(candidate_path), "--json"])
        assert exc.value.code == 1
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[stdout.index("{"):])
        assert payload["ok"] is False
        assert ("engines.set_associative_8way.speedup"
                in payload["summary"]["over_budget"])

    def test_perf_compare_latest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PERF_HISTORY_DIR", str(tmp_path))
        store = HistoryStore(tmp_path)
        store.append(record_from_bench(BENCH), stream="perf_smoke")
        assert main(["perf", "compare", "latest", "latest"]) == 0
        assert "perf comparison" in capsys.readouterr().out

    def test_perf_history_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PERF_HISTORY_DIR", str(tmp_path))
        store = HistoryStore(tmp_path)
        for v in (6.0, 7.0, 8.0):
            rec = build_record({"trace_synthesis.speedup": v}, source="perf_smoke")
            rec["created_unix"] = v
            store.append(rec, stream="perf_smoke")
        assert main(["perf", "history", "trace_synthesis.speedup"]) == 0
        out = capsys.readouterr().out
        assert "3 samples" in out and "8" in out

    def test_perf_history_unknown_key_exits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_HISTORY_DIR", str(tmp_path))
        with pytest.raises(SystemExit):
            main(["perf", "history", "no.such.key"])

    def test_check_window_takes_best_sample(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_HISTORY_DIR", str(tmp_path))
        baseline_path = tmp_path / "BENCH_baseline.json"
        baseline_path.write_text(json.dumps(BENCH))
        store = HistoryStore(tmp_path)
        # history holds a fast sample; the current file is a slow outlier
        store.append(record_from_bench(BENCH), stream="perf_smoke")
        slow = dict(json.loads(baseline_path.read_text()))
        slow["trace"]["expand_seconds"] = 6.0  # > 2.0 budget over 1.25
        candidate_path = tmp_path / "BENCH_memsim.json"
        candidate_path.write_text(json.dumps(slow))
        with pytest.raises(SystemExit):
            main(["perf", "check", "--against", str(baseline_path),
                  "--candidate", str(candidate_path)])
        # with --window 2 the min-of-k reduction recovers the fast sample
        assert main(["perf", "check", "--against", str(baseline_path),
                     "--candidate", str(candidate_path), "--window", "2"]) == 0
