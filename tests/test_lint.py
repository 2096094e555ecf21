"""Pluggable repo lint (repro.lint): framework, rules I1-I5, reporters."""

import ast
import json
from pathlib import Path

import pytest

from repro.lint import (
    all_rules,
    render_text,
    report_to_json,
    run_lint,
)
from repro.lint.core import SCAN_DIRS, Rule, register


def check(rule_name: str, source: str, path: str = "src/repro/x.py"):
    """Run one registered rule over synthetic source text."""
    rule = all_rules()[rule_name]
    rule.begin()
    return rule.check(Path(path), ast.parse(source))


class TestFramework:
    def test_registry_has_all_rules(self):
        assert sorted(all_rules()) == ["I1", "I2", "I3", "I4", "I5", "I6"]

    def test_rules_have_summaries(self):
        for rule in all_rules().values():
            assert rule.summary

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="registered twice"):
            @register
            class Dup(Rule):
                name = "I1"

    def test_register_rejects_unnamed(self):
        with pytest.raises(ValueError, match="has no name"):
            @register
            class NoName(Rule):
                pass

    def test_applies_to_scoping(self):
        i3 = all_rules()["I3"]
        assert i3.applies_to(Path("src/repro/analysis/timing.py"))
        assert not i3.applies_to(Path("src/repro/clock.py"))  # allowlisted
        assert not i3.applies_to(Path("benchmarks/bench_gemm.py"))  # allow_dir
        assert not i3.applies_to(Path("tests/test_clock.py"))  # out of scope
        i2 = all_rules()["I2"]
        assert i2.applies_to(Path("src/repro/memsim/engines.py"))
        assert not i2.applies_to(Path("src/repro/analysis/figures.py"))

    def test_unknown_select_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            run_lint(select=["I99"])


class TestRuleI1ScalarSim:
    def test_flags_calls(self):
        src = "simulate_lru(trace)\ncache = LRUCache(64)\n"
        out = check("I1", src)
        assert [v.rule for v in out] == ["I1", "I1"]
        assert "simulate_lru" in out[0].message

    def test_ignores_mentions_without_call(self):
        assert check("I1", "from repro.memsim.cache import simulate_lru\n") == []


class TestRuleI2StableSort:
    def test_flags_unstable_argsort(self):
        out = check("I2", "import numpy as np\norder = np.argsort(keys)\n",
                    path="src/repro/memsim/x.py")
        assert len(out) == 1 and 'kind="stable"' in out[0].message

    def test_accepts_stable_kind(self):
        src = 'import numpy as np\norder = np.argsort(keys, kind="stable")\n'
        assert check("I2", src, path="src/repro/memsim/x.py") == []

    def test_ignores_non_numpy_sort(self):
        assert check("I2", "mylist.sort()\n", path="src/repro/memsim/x.py") == []


class TestRuleI3NoDirectTime:
    def test_flags_attribute_reads(self):
        out = check("I3", "import time\nt0 = time.perf_counter()\n")
        assert len(out) == 1 and "time.perf_counter" in out[0].message

    def test_flags_from_import(self):
        out = check("I3", "from time import perf_counter\n")
        assert len(out) == 1

    def test_allows_sleep(self):
        assert check("I3", "import time\ntime.sleep(0.1)\n") == []


class TestRuleI4KnobsDeclared:
    def test_flags_undeclared_knob_string(self):
        out = check("I4", 'x = os.environ.get("REPRO_BOGUS_KNOB")\n')
        assert len(out) == 1 and "REPRO_BOGUS_KNOB" in out[0].message

    def test_accepts_declared_knobs(self):
        assert check("I4", 'flag = "REPRO_OBS"\njobs = "REPRO_JOBS"\n') == []

    def test_docstring_mentions_count(self):
        out = check("I4", '"""Set REPRO_NOT_A_KNOB=1 to explode."""\n')
        assert len(out) == 1


class TestRuleI5NoBareEnviron:
    def test_flags_get_read(self):
        out = check("I5", 'import os\nv = os.environ.get("REPRO_OBS")\n')
        assert len(out) == 1 and ".get() read" in out[0].message

    def test_flags_subscript_read_and_membership(self):
        src = 'import os\nv = os.environ["HOME"]\nhit = "HOME" in os.environ\n'
        out = check("I5", src)
        assert len(out) == 2

    def test_flags_from_import(self):
        assert len(check("I5", "from os import environ\n")) == 1

    def test_allows_writes(self):
        src = 'import os\nos.environ["REPRO_JOBS"] = "2"\n'
        assert check("I5", src) == []


class TestRunLint:
    def test_repo_is_clean(self):
        report = run_lint()
        assert report.ok, "\n".join(v.render() for v in report.violations)
        assert report.rules == ("I1", "I2", "I3", "I4", "I5", "I6")
        assert report.files_scanned > 50

    def test_select_subset(self):
        report = run_lint(select=["I3", "I5"])
        assert report.rules == ("I3", "I5")
        assert report.ok

    def test_syntax_error_reported_as_i0(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def f(:\n")
        report = run_lint(root=tmp_path)
        assert not report.ok
        assert report.violations[0].rule == "I0"

    def test_scan_dirs_unchanged(self):
        assert SCAN_DIRS == ("src", "scripts", "benchmarks")


class TestReporters:
    def test_text_ok_line(self):
        text = render_text(run_lint(select=["I1"]))
        assert text.startswith("lint: OK (")

    def test_json_roundtrip(self):
        report = run_lint(select=["I4"])
        data = json.loads(report_to_json(report))
        assert data["ok"] is True
        assert data["rules"] == ["I4"]
        assert data["files_scanned"] == report.files_scanned
        assert data["violations"] == []

    def test_json_carries_violations(self, tmp_path):
        (tmp_path / "scripts").mkdir()
        (tmp_path / "scripts" / "bad.py").write_text(
            "import time\nt = time.time()\n"
        )
        data = json.loads(report_to_json(run_lint(root=tmp_path)))
        assert data["ok"] is False
        assert data["violations"][0]["rule"] == "I3"
        assert data["violations"][0]["path"] == "scripts/bad.py"


class TestPerfNamespaceRule:
    """I6: budget keys unique + snake_case; metric names kind-consistent."""

    def test_clean_budget_and_metrics(self):
        assert check("I6", (
            'declare_budget("engines.*.speedup", direction="higher_better",\n'
            '               max_regression=0.4, doc="d")\n'
            'obs.add("memsim.store.profile_hits")\n'
            'obs.observe("convert.seconds", 0.5)\n'
        )) == []

    def test_duplicate_budget_key_flagged_at_second_site(self):
        out = check("I6", (
            'declare_budget("trace.accesses", direction="exact",\n'
            '               max_regression=0.0, doc="d")\n'
            'declare_budget("trace.accesses", direction="exact",\n'
            '               max_regression=0.0, doc="d")\n'
        ))
        assert len(out) == 1
        assert out[0].line == 3
        assert "already declared" in out[0].message

    def test_duplicate_budget_key_across_files(self):
        rule = all_rules()["I6"]
        rule.begin()
        src = ('declare_budget("a.b", direction="exact", '
               'max_regression=0.0, doc="d")\n')
        assert rule.check(Path("src/repro/one.py"), ast.parse(src)) == []
        out = rule.check(Path("src/repro/two.py"), ast.parse(src))
        assert len(out) == 1
        assert "src/repro/one.py:1" in out[0].message

    def test_begin_resets_cross_file_state(self):
        src = ('declare_budget("a.b", direction="exact", '
               'max_regression=0.0, doc="d")\n')
        assert check("I6", src) == []
        assert check("I6", src) == []  # helper begin()s each time

    def test_budget_key_glob_segment_allowed(self):
        assert check(
            "I6",
            'declare_budget("engines.*.accesses_per_sec", doc="d")\n',
        ) == []

    def test_budget_key_not_snake_case(self):
        out = check("I6", 'declare_budget("Engines.Speedup", doc="d")\n')
        assert len(out) == 1
        assert "snake_case" in out[0].message

    def test_metric_name_not_snake_case(self):
        out = check("I6", 'obs.add("memsim.TraceHits")\n')
        assert len(out) == 1
        assert "snake_case" in out[0].message

    def test_metric_kind_conflict(self):
        out = check("I6", (
            'obs.add("convert.seconds")\n'
            'obs.observe("convert.seconds", 0.5)\n'
        ))
        assert len(out) == 1
        assert out[0].line == 2
        assert "counter" in out[0].message and "histogram" in out[0].message

    def test_same_kind_many_sites_is_fine(self):
        assert check("I6", (
            'obs.add("sanitize.runs")\n'
            'obs.add("sanitize.runs", 3)\n'
        )) == []

    def test_dynamic_names_out_of_scope(self):
        assert check("I6", 'obs.add(f"{prefix}.runs")\n') == []

    def test_unrelated_add_calls_ignored(self):
        assert check("I6", 'seen.add("Not-A-Metric")\n') == []

    def test_repo_is_clean_under_i6(self):
        assert run_lint(select=["I6"]).ok
