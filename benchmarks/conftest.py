"""Benchmark-harness plumbing.

Each bench module both (a) times its kernel with pytest-benchmark and
(b) regenerates the rows/series of one paper figure or table.  The
tables are registered here and dumped in the terminal summary, so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
the full reproduction alongside the timing statistics.
"""

from __future__ import annotations

_TABLES: list[tuple[str, str]] = []


def register_table(title: str, text: str) -> None:
    """Queue a reproduced figure/table for the end-of-run summary."""
    _TABLES.append((title, text))


def pytest_terminal_summary(terminalreporter):
    tr = terminalreporter
    if _TABLES:
        tr.write_sep("=", "reproduced paper figures/tables")
        for title, text in _TABLES:
            tr.write_sep("-", title)
            tr.write_line(text)
    from repro.memsim.store import default_store

    store = default_store()
    c = store.counters()
    if any(c.values()):
        tr.write_sep("-", "trace cache")
        tr.write_line(
            f"root={store.root}  "
            f"profiles: {c['profile_hits']} hit / {c['profile_misses']} miss"
        )
        if c["profile_misses"] == 0:
            tr.write_line("warm cache: no trace was re-expanded this run")
    # Provenance: pin this bench run to commit/seed/cache state so its
    # numbers (and any --benchmark-json output) can be traced back.
    try:
        from repro import obs

        manifest = obs.build_manifest(command="benchmarks", store=store)
        path = obs.write_manifest(
            obs.obs_output_dir() / "manifests" / "benchmarks.json", manifest
        )
        tr.write_line(f"provenance manifest: {path}")
    except OSError:
        manifest = None  # never fail a bench run over provenance bookkeeping
    # History: one record per bench session on the `benchmarks` stream
    # (obs metrics + trace-cache counters), same best-effort contract.
    try:
        from repro.perf.history import HistoryStore, history_enabled, record_from_obs

        if history_enabled():
            record = record_from_obs(source="benchmarks", manifest=manifest)
            if record["metrics"]:
                hpath = HistoryStore().append(record, stream="benchmarks")
                tr.write_line(
                    f"history record: {record['record_id'][:12]} -> {hpath}"
                )
    except OSError:
        pass
