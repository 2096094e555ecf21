"""Central REPRO_* knob registry (repro.knobs)."""

import pytest

from repro import knobs


class TestParsing:
    @pytest.mark.parametrize("raw", ["1", "true", "YES", " on ", "True"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_OBS", raw)
        assert knobs.flag("REPRO_OBS") is True

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off", "2", "junk"])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_OBS", raw)
        assert knobs.flag("REPRO_OBS") is False

    def test_unset_takes_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert knobs.flag("REPRO_OBS") is False
        assert knobs.flag("REPRO_TRACE_CACHE") is True  # default-on

    def test_empty_string_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "   ")
        assert knobs.flag("REPRO_TRACE_CACHE") is True

    def test_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 3 ")
        assert knobs.integer("REPRO_JOBS") == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert knobs.integer("REPRO_JOBS") is None

    def test_integer_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
            knobs.integer("REPRO_JOBS")

    def test_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", "/tmp/obs")
        assert knobs.path("REPRO_OBS_DIR") == "/tmp/obs"
        monkeypatch.delenv("REPRO_OBS_DIR")
        assert knobs.path("REPRO_OBS_DIR") is None


class TestRegistry:
    def test_undeclared_name_raises(self):
        with pytest.raises(KeyError, match="undeclared knob"):
            knobs.raw("REPRO_NO_SUCH_KNOB")

    def test_kind_mismatch_raises(self):
        with pytest.raises(TypeError, match="not flag"):
            knobs.flag("REPRO_JOBS")
        with pytest.raises(TypeError, match="not int"):
            knobs.integer("REPRO_OBS")

    def test_double_declaration_rejected(self):
        with pytest.raises(ValueError, match="declared twice"):
            knobs.declare("REPRO_OBS", "flag", False, "dup")

    def test_declared_names_cover_known_knobs(self):
        names = knobs.declared_names()
        for expected in (
            "REPRO_OBS", "REPRO_OBS_DIR", "REPRO_JOBS",
            "REPRO_DETERMINISTIC_TIMING",
            "REPRO_TRACE_CACHE", "REPRO_TRACE_CACHE_DIR",
            "REPRO_SERVE_HOST", "REPRO_SERVE_PORT",
            "REPRO_SERVE_MAX_RETRIES", "REPRO_SERVE_TEST_HOOKS",
        ):
            assert expected in names


class TestEffective:
    def test_effective_reports_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.delenv("REPRO_OBS", raising=False)
        eff = knobs.effective()
        assert eff["REPRO_JOBS"]["source"] == "env"
        assert eff["REPRO_JOBS"]["value"] == 2
        assert eff["REPRO_OBS"]["source"] == "default"
        assert eff["REPRO_OBS"]["value"] is False

    def test_render_effective_lists_every_knob(self):
        text = knobs.render_effective()
        for name in knobs.declared_names():
            assert name in text


class TestEnvironIsolation:
    """environ_snapshot / environ_restore: the conftest autouse fixture's
    machinery, and the fix for subcommands that export REPRO_* vars
    (``repro report --jobs`` sets REPRO_JOBS for its nested run)."""

    def test_snapshot_holds_only_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("NOT_REPRO", "x")
        snap = knobs.environ_snapshot()
        assert snap["REPRO_JOBS"] == "3"
        assert all(name.startswith("REPRO_") for name in snap)

    def test_restore_removes_added_and_reverts_changed(self):
        import os

        snap = knobs.environ_snapshot()
        os.environ["REPRO_JOBS"] = "99"
        os.environ["REPRO_OBS"] = "1"
        knobs.environ_restore(snap)
        for name in ("REPRO_JOBS", "REPRO_OBS"):
            assert os.environ.get(name) == snap.get(name)

    def test_restore_reinstates_deleted(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "4")
        snap = knobs.environ_snapshot()
        del os.environ["REPRO_JOBS"]
        knobs.environ_restore(snap)
        assert os.environ["REPRO_JOBS"] == "4"

    def test_report_jobs_export_does_not_leak_across_tests(self):
        """The autouse fixture undoes REPRO_* writes a test makes; this
        pair (with test_zz companion below) would flake without it."""
        import os

        os.environ["REPRO_SERVE_PORT"] = "54321"
        assert knobs.integer("REPRO_SERVE_PORT") == 54321

    def test_zz_previous_test_write_was_rolled_back(self):
        import os

        assert os.environ.get("REPRO_SERVE_PORT") is None
