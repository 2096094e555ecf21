"""The ``python -m repro`` experiment CLI."""

import inspect

import pytest

from repro.__main__ import build_parser, main
from repro.analysis import experiments as ex

#: Figure subcommand -> the driver whose signature declares its flags.
FIGURE_DRIVERS = {
    "fig1": ex.fig1_locality,
    "fig2": ex.fig2_layouts,
    "fig4": ex.fig4_tile_size_sweep,
    "fig5": ex.fig5_robustness,
    "fig6": ex.fig6_layout_comparison,
    "fig6sim": ex.fig6_simulated,
    "fig6ms": ex.fig6_machine_scaling,
    "fig7": ex.fig7_kernel_tiers,
    "critical": ex.critical_path_table,
    "scaling": ex.scaling_table,
    "sharing": ex.false_sharing_table,
    "conversion": ex.conversion_accounting,
}


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a.choices, dict)
        )
        assert set(subparsers.choices) == {
            "fig1", "fig2", "fig4", "fig5", "fig6", "fig6sim", "fig6ms",
            "fig7", "critical", "scaling", "sharing", "conversion", "gemm",
            "accuracy", "verify", "sanitize", "trace", "report",
            "staticcheck", "lint", "perf", "serve",
        }

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("name", sorted(FIGURE_DRIVERS))
    def test_figure_flags_default_to_driver_signature(self, name):
        """A bare figure subcommand runs the driver at its own defaults:
        every parsed value is a driver keyword at its signature default."""
        args = vars(build_parser().parse_args([name]))
        signature = inspect.signature(FIGURE_DRIVERS[name]).parameters
        for key, value in args.items():
            if key in ("command", "fn"):
                continue
            assert key in signature, f"{name} --{key} is no driver keyword"
            assert value == signature[key].default, (name, key)


class TestFastCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "winograd" in out and "(0, 7)" in out

    def test_fig2(self, capsys):
        assert main(["fig2", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert "--- LH ---" in out
        assert "Dilation" in out

    def test_critical(self, capsys):
        assert main(["critical", "--n", "256", "--tile", "16"]) == 0
        out = capsys.readouterr().out
        assert "parallelism" in out

    def test_scaling(self, capsys):
        assert main(["scaling", "--n", "64", "--procs", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "steals" in out

    def test_sharing(self, capsys):
        assert main(["sharing", "--n-values", "61"]) == 0
        out = capsys.readouterr().out
        assert "LC false" in out

    def test_gemm(self, capsys):
        assert main([
            "gemm", "--m", "40", "--k", "30", "--n", "50",
            "--algorithm", "strassen", "--layout", "LG",
        ]) == 0
        out = capsys.readouterr().out
        assert "max |err|" in out
        assert "strassen / LG" in out

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "configurations passed" in out

    def test_conversion(self, capsys):
        assert main(["conversion", "--n-values", "64"]) == 0
        assert "fraction" in capsys.readouterr().out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--n", "32", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "unrolled" in out


class TestObsCommands:
    @pytest.fixture(autouse=True)
    def _isolated_obs(self, tmp_path, monkeypatch):
        # Keep obs artifacts out of the repo and restore the global
        # enabled flag (``report`` flips it on).
        from repro import obs

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        was = obs.enabled()
        yield
        obs.set_enabled(was)
        obs.reset()

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.perfetto import validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main([
            "trace", "--algorithm", "strassen", "-n", "48",
            "--workers", "4", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "makespan" in stdout and "perfetto" in stdout
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 4

    def test_report_runs_subcommand_and_dumps(self, capsys, tmp_path):
        assert main(["report", "--run", "fig2", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "metrics" in out
        assert "fig2" in out
        assert (tmp_path / "spans.jsonl").exists()
        assert (tmp_path / "manifests" / "report.json").exists()

    def test_report_rejects_nested_obs_commands(self):
        with pytest.raises(SystemExit):
            main(["report", "--run", "report"])

    def test_run_manifest_written_for_ordinary_command(self, capsys, tmp_path):
        import json

        assert main(["fig1"]) == 0
        manifest = json.loads((tmp_path / "manifests" / "fig1.json").read_text())
        assert manifest["command"] == "fig1"
        assert manifest["schema_version"] == 1


class TestSlowerCommands:
    @pytest.mark.slow
    def test_fig5_small(self, capsys):
        assert main(["fig5", "--n-values", "60", "64", "68", "--tile", "8"]) == 0
        assert "standard_LC" in capsys.readouterr().out

    @pytest.mark.slow
    def test_fig6sim_small(self, capsys):
        assert main(["fig6sim", "--n", "64", "--tile", "8"]) == 0
        assert "vs LC" in capsys.readouterr().out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--n", "32", "--tiles", "8", "16",
                     "--repeats", "1"]) == 0
        assert "slowdown" in capsys.readouterr().out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--n", "48", "--repeats", "1"]) == 0
        assert "p=4" in capsys.readouterr().out
