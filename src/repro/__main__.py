"""Command-line experiment runner: ``python -m repro <experiment> [...]``.

Each figure subcommand regenerates one paper figure/table at an
adjustable scale and prints it (the benchmark suite runs the same
drivers under pytest-benchmark; this entry point is for interactive
exploration).  The figure subcommands are generated from the figure
table (:mod:`repro.analysis.figures`): one flag per driver keyword,
defaulting to the driver's own default, plus ``--jobs`` for sweeps.

Examples::

    python -m repro fig1
    python -m repro fig2 --order 3
    python -m repro fig4 --n 256 --tiles 4 8 16 32 64
    python -m repro fig5 --n-values 248 256 264 272 280 --tile 16
    python -m repro fig6 --n 200
    python -m repro fig6sim --n 250 --layouts LC LZ LH
    python -m repro fig7 --n 128
    python -m repro critical --n 1024 --tile 32
    python -m repro scaling --algorithm strassen --n 256
    python -m repro sharing --n-values 61 100 129
    python -m repro gemm --m 300 --k 200 --n 250 --algorithm hybrid
    python -m repro trace --algorithm strassen --workers 4
    python -m repro report --run fig2 --order 2
    python -m repro staticcheck --algorithm hybrid --layout LH
    python -m repro lint --select I3 --select I5
    python -m repro perf check --against BENCH_baseline.json
    python -m repro perf compare latest BENCH_memsim.json
    python -m repro perf history trace_synthesis.speedup

Every run drops a provenance manifest (git SHA, seed, machine
fingerprint, trace-cache content addresses) under
``.benchmarks/obs/manifests/`` — see docs/MODELING.md "Observability".
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import knobs, obs
from repro.analysis import format_table
from repro.analysis.figures import FIGURES

__all__ = ["main"]


def _cmd_figure(args) -> None:
    figure = FIGURES[args.command]
    params = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
    print(figure.render(figure.driver(**params), params))


def _cmd_verify(args) -> None:
    from repro.analysis.verify import verify_against_numpy

    rows = verify_against_numpy()
    bad = [r for r in rows if not r["ok"]]
    print(format_table(
        ["algorithm", "layout", "shape", "max rel error", "ok"],
        [[r["algorithm"], r["layout"], str(r["shape"]),
          r["max_rel_error"], r["ok"]] for r in rows],
        "Verification against numpy's native product",
    ))
    print(f"\n{len(rows) - len(bad)}/{len(rows)} configurations passed")
    if bad:
        raise SystemExit(1)


def _cmd_accuracy(args) -> None:
    from repro.analysis.accuracy import error_growth

    rows = []
    for workload in args.workloads:
        rows.extend(
            error_growth(n=args.n, tile=args.tile, workload=workload,
                         fast=args.fast)
        )
    print(format_table(
        ["workload", "fast levels", "rel error", "multiply flops"],
        [[r["workload"], r["fast_levels"], r["rel_error"],
          r["multiply_flops"]] for r in rows],
        f"Accuracy vs fast-recursion depth ({args.fast}, n={args.n})",
    ))


def _cmd_sanitize(args) -> None:
    from repro.layouts.registry import RECURSIVE_LAYOUTS
    from repro.sanitize import resolve_layout, sanitize_multiply

    if args.all or args.algorithm is None or args.layout is None:
        algorithms = (
            [args.algorithm] if args.algorithm
            else ["standard", "strassen", "winograd"]
        )
        layouts = [args.layout] if args.layout else list(RECURSIVE_LAYOUTS) + ["LC"]
    else:
        algorithms = [args.algorithm]
        layouts = [args.layout]

    rows = []
    failed = False
    findings: list[str] = []
    for algorithm in algorithms:
        for layout in layouts:
            rep = sanitize_multiply(
                algorithm, resolve_layout(layout), args.n,
                tile=args.tile, mode=args.mode,
            )
            rows.append([
                rep.algorithm, rep.layout, rep.n_events, rep.n_tasks,
                rep.n_race_pairs, rep.n_false_sharing_pairs,
                len(rep.bounds), len(rep.bijection),
                "OK" if rep.ok else "FAIL",
            ])
            if not rep.ok:
                failed = True
                findings.append(rep.details())
    print(format_table(
        ["algorithm", "layout", "events", "tasks", "races",
         "false sharing", "bounds", "bijection", "verdict"],
        rows,
        f"Determinacy-race sanitizer (n={args.n}, tile={args.tile})",
    ))
    for block in findings:
        print()
        print(block)
    if failed:
        raise SystemExit(1)


def _cmd_staticcheck(args) -> None:
    from repro.algorithms.dgemm import ALGORITHMS
    from repro.layouts.registry import RECURSIVE_LAYOUTS
    from repro.sanitize import resolve_layout
    from repro.staticcheck import (
        DEFAULT_DEPTH,
        reports_to_json,
        staticcheck_multiply,
    )

    algorithms = [args.algorithm] if args.algorithm else sorted(ALGORITHMS)
    layouts = (
        [resolve_layout(args.layout)] if args.layout
        else list(RECURSIVE_LAYOUTS) + ["LC"]
    )
    reports = [
        staticcheck_multiply(alg, lay, depth=args.depth, mode=args.mode)
        for alg in algorithms for lay in layouts
    ]
    if args.json:
        print(reports_to_json(reports))
    else:
        depth = args.depth if args.depth is not None else DEFAULT_DEPTH
        print(format_table(
            ["algorithm", "layout", "events", "tasks", "races",
             "templates", "rep scans", "verdict"],
            [[r.algorithm, r.layout, r.n_events, r.n_tasks, r.n_race_pairs,
              r.n_signatures, r.n_rep_scans,
              "PROVED" if r.ok else ("RACY" if r.races else "UNCERTIFIED")]
             for r in reports],
            f"Static determinacy verification (symbolic n, depth={depth})",
        ))
        bad = [r for r in reports if not r.ok]
        if args.proofs or bad:
            for r in (reports if args.proofs else bad):
                print()
                print(r.proof())
        elif reports:
            print(f"\nall race-free for every n in "
                  f"[{reports[0].shape_class}]")
    if not all(r.ok for r in reports):
        raise SystemExit(1)


def _cmd_lint(args) -> None:
    from pathlib import Path

    from repro.lint import render_text, report_to_json, run_lint

    try:
        report = run_lint(
            root=Path(args.root) if args.root else None, select=args.select
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(report_to_json(report) if args.json else render_text(report))
    if not report.ok:
        raise SystemExit(1)


def _cmd_gemm(args) -> None:
    from repro import dgemm

    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((args.m, args.k))
    b = rng.standard_normal((args.k, args.n))
    r = dgemm(a, b, algorithm=args.algorithm, layout=args.layout)
    err = float(np.abs(r.c - a @ b).max())
    print(f"C = A({args.m}x{args.k}) . B({args.k}x{args.n})  "
          f"[{args.algorithm} / {args.layout}]")
    print(f"  max |err| vs numpy : {err:.3e}")
    print(f"  total time         : {r.total_seconds * 1e3:.1f} ms "
          f"({100 * r.conversion_fraction:.1f}% conversion)")
    print(f"  tile grid          : 2^{r.tiling.d}, tiles "
          f"{r.tiling.t_m}/{r.tiling.t_k}/{r.tiling.t_n}, padded {r.tiling.padded}")
    print(f"  leaf multiplies    : {r.counters.leaf_multiplies} "
          f"({r.counters.multiply_flops:,} flops)")
    if not r.partition.is_trivial:
        print(f"  partitioned        : p_m={r.partition.p_m} "
              f"p_k={r.partition.p_k} p_n={r.partition.p_n}")


def _cmd_trace(args) -> None:
    from repro.analysis.experiments import record_task_dag
    from repro.obs.perfetto import schedule_to_chrome_trace, write_chrome_trace
    from repro.runtime.scheduler import greedy_makespan, work_stealing_makespan
    from repro.runtime.task import span as sp_span
    from repro.runtime.task import work as sp_work

    dag, root = record_task_dag(args.algorithm, args.n)
    if args.scheduler == "greedy":
        res = greedy_makespan(dag, args.workers, record_timeline=True)
    else:
        res = work_stealing_makespan(
            dag, args.workers, steal_cost=args.steal_cost, seed=args.seed,
            record_timeline=True,
        )
    res.publish(f"scheduler.{args.scheduler}")
    trace = schedule_to_chrome_trace(
        res,
        title=f"{args.algorithm} n={args.n} {args.scheduler} p={args.workers}",
    )
    out = args.out or (
        obs.obs_output_dir()
        / f"schedule_{args.algorithm}_n{args.n}_{args.scheduler}_p{args.workers}.json"
    )
    path = write_chrome_trace(out, trace)
    t1, tinf = sp_work(root), sp_span(root)
    print(f"{args.algorithm} n={args.n}: {len(dag)} tasks, "
          f"T1={t1:.0f} Tinf={tinf:.0f} cycles")
    print(f"{args.scheduler} on {args.workers} workers: "
          f"makespan={res.makespan:.0f} cycles, speedup {t1 / res.makespan:.2f}x, "
          f"utilization {res.utilization:.1%}, "
          f"steals {res.steals} ok / {res.failed_steals} failed")
    print(f"wrote {path} ({len(trace['traceEvents'])} events; "
          f"load it at https://ui.perfetto.dev or chrome://tracing)")


def _cmd_report(args) -> None:
    import os

    from repro.memsim.store import default_store

    obs.set_enabled(True)
    if args.fresh:
        obs.reset()
        default_store().reset_counters()
    if args.jobs is not None:
        # The nested subcommand (and any sweep workers it forks) picks
        # the worker count up from the environment.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    # Default workload touches the trace cache, so a bare `report` still
    # demonstrates nonzero cache and span counters.
    run = list(args.run) if args.run else ["fig6sim", "--n", "48", "--tile", "8"]
    if run[0] in ("report", "trace"):
        raise SystemExit("report --run cannot nest obs subcommands")
    sub = build_parser().parse_args(run)
    sub.fn(sub)
    print()
    print(obs.render_report())
    print()
    print(knobs.render_effective())
    out_dir = obs.obs_output_dir()
    trace_path = obs.collector().export_jsonl(out_dir / "spans.jsonl")
    try:
        spans, skipped = obs.read_spans_jsonl(trace_path)
    except obs.SpanReadError as exc:
        raise SystemExit(f"report: {exc}") from None
    if skipped:
        print(f"\nwarning: skipped {skipped} malformed span line(s) in "
              f"{trace_path}")
    if args.top_spans:
        # Read the table back from the JSONL export so the file on disk
        # is the source of truth for the hotspot numbers.
        print()
        print(obs.render_top_spans(spans, limit=args.top_spans))
    if args.diff:
        from repro.perf import compare_spans, render_span_diff, span_self_times

        try:
            base_spans, base_skipped = obs.read_spans_jsonl(args.diff)
        except obs.SpanReadError as exc:
            raise SystemExit(f"report: --diff {exc}") from None
        if base_skipped:
            print(f"\nwarning: skipped {base_skipped} malformed span "
                  f"line(s) in {args.diff}")
        print()
        print(render_span_diff(compare_spans(
            span_self_times(base_spans), span_self_times(spans)
        )))
    manifest = obs.build_manifest(command="report", jobs=args.jobs,
                                  extra={"run": run})
    manifest_path = obs.write_manifest(out_dir / "manifests" / "report.json", manifest)
    print()
    print(f"spans:    {trace_path}")
    print(f"manifest: {manifest_path}")


def _cmd_serve(args) -> None:
    from repro.serve.server import run_server

    host = args.host if args.host is not None else knobs.path("REPRO_SERVE_HOST")
    port = args.port if args.port is not None else (
        knobs.integer("REPRO_SERVE_PORT") or 0
    )
    run_server(
        host,
        port,
        pool_jobs=args.jobs,
        append_history=args.append_history,
    )


#: argparse settings of each parameter kind the command line spells.
_FLAG_KINDS: dict[str, dict] = {
    "int": {"type": int},
    "ints": {"type": int, "nargs": "+"},
    "str": {},
    "strs": {"nargs": "+"},
    "bool": {"action": argparse.BooleanOptionalAction},
}


def _add_figure_parsers(sub) -> None:
    """One subcommand per figure, one flag per driver keyword."""
    for figure in FIGURES.values():
        s = sub.add_parser(figure.name, help=figure.help)
        for p in figure.params:
            if p.kind not in _FLAG_KINDS:
                continue  # machine models, tile ranges, cost models
            flag = dict(_FLAG_KINDS[p.kind], default=p.default)
            if p.choices:
                flag["choices"] = p.choices
            s.add_argument("--" + p.name.replace("_", "-"), **flag)
        if figure.jobs:
            s.add_argument("--jobs", "-j", type=int, default=None,
                           help="sweep worker processes (default: REPRO_JOBS "
                                "env, else cpu count; 1 = serial)")
        s.set_defaults(fn=_cmd_figure)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from the SPAA'99 recursive-layout paper.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    _add_figure_parsers(sub)

    s = sub.add_parser("verify", help="verify all algorithm/layout combos vs numpy")
    s.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("accuracy", help="error growth vs fast-recursion depth")
    s.add_argument("--n", type=int, default=256)
    s.add_argument("--tile", type=int, default=16)
    s.add_argument("--fast", default="strassen")
    s.add_argument("--workloads", nargs="+", default=["gaussian", "graded"])
    s.set_defaults(fn=_cmd_accuracy)

    s = sub.add_parser(
        "sanitize",
        help="determinacy-race + bounds/bijection sanitizer over a traced multiply",
    )
    s.add_argument("--algorithm", "-a", default=None,
                   help="algorithm name (default: standard, strassen, winograd)")
    s.add_argument("--layout", "-l", default=None,
                   help="layout name or alias, e.g. LZ or hilbert "
                        "(default: all five recursive layouts + LC)")
    s.add_argument("-n", "--n", type=int, default=64)
    s.add_argument("--tile", type=int, default=16)
    s.add_argument("--mode", default="accumulate",
                   help="standard algorithm spawn structure (accumulate|temps)")
    s.add_argument("--all", action="store_true",
                   help="sweep all three algorithms over all layouts")
    s.set_defaults(fn=_cmd_sanitize)

    s = sub.add_parser(
        "trace",
        help="export a simulated schedule as Chrome-trace/Perfetto JSON",
    )
    s.add_argument("--algorithm", "-a", default="strassen")
    s.add_argument("-n", "--n", type=int, default=96)
    s.add_argument("--workers", "-w", type=int, default=4)
    s.add_argument("--scheduler", choices=("ws", "greedy"), default="ws",
                   help="work stealing (default) or greedy list scheduling")
    s.add_argument("--steal-cost", type=float, default=100.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None,
                   help="output path (default: .benchmarks/obs/schedule_*.json)")
    s.set_defaults(fn=_cmd_trace)

    s = sub.add_parser(
        "report",
        help="enable obs, optionally run one subcommand, dump spans + metrics",
    )
    s.add_argument("--run", nargs=argparse.REMAINDER, default=None,
                   help="subcommand (+args) to run with obs enabled, e.g. "
                        "--run fig2 --order 2 (default: a small fig6sim)")
    s.add_argument("--no-fresh", dest="fresh", action="store_false",
                   help="keep previously recorded spans/metrics/counters")
    s.add_argument("--jobs", "-j", type=int, default=None,
                   help="set REPRO_JOBS for the nested subcommand "
                        "(sweep worker processes)")
    s.add_argument("--top-spans", type=int, default=0, metavar="N",
                   help="also print the N hottest span names by self "
                        "time (span duration minus direct children), "
                        "computed from the exported spans.jsonl")
    s.add_argument("--diff", default=None, metavar="SPANS_JSONL",
                   help="diff this run's span self-times against a "
                        "previous spans.jsonl export")
    s.set_defaults(fn=_cmd_report, fresh=True)

    s = sub.add_parser(
        "staticcheck",
        help="statically prove race-freedom of the recursion at symbolic n",
    )
    s.add_argument("--algorithm", "-a", default=None,
                   help="algorithm name (default: all registered algorithms)")
    s.add_argument("--layout", "-l", default=None,
                   help="layout name or alias (default: all recursive + LC)")
    s.add_argument("--depth", type=int, default=None,
                   help="symbolic unroll depth (default: 4)")
    s.add_argument("--mode", default="accumulate",
                   help="standard algorithm spawn structure (accumulate|temps)")
    s.add_argument("--proofs", action="store_true",
                   help="print the full proof statement for every pair")
    s.add_argument("--json", action="store_true",
                   help="emit the JSON sweep report (the CI artifact format)")
    s.set_defaults(fn=_cmd_staticcheck)

    from repro.perf.cli import add_perf_parser

    add_perf_parser(sub)

    s = sub.add_parser(
        "lint",
        help="repo-specific AST invariants I1-I6 (repro.lint)",
    )
    s.add_argument("--root", default=None, help="repository root to scan")
    s.add_argument("--select", action="append", default=None, metavar="RULE",
                   help="run only these rules (repeatable, e.g. --select I3)")
    s.add_argument("--json", action="store_true",
                   help="emit the JSON report instead of text")
    s.set_defaults(fn=_cmd_lint)

    s = sub.add_parser(
        "serve",
        help="long-lived simulation service (batch sweep API, shared "
             "warm trace store)",
    )
    s.add_argument("--host", default=None,
                   help="bind address (default: REPRO_SERVE_HOST)")
    s.add_argument("--port", type=int, default=None,
                   help="TCP port; 0 binds an ephemeral port "
                        "(default: REPRO_SERVE_PORT)")
    s.add_argument("--jobs", "-j", type=int, default=None,
                   help="worker-pool width (default: REPRO_JOBS, "
                        "else cpu count)")
    s.add_argument("--append-history", action="store_true",
                   help="write a serve:session record to the perf-history "
                        "'serve' stream on shutdown")
    s.set_defaults(fn=_cmd_serve)

    s = sub.add_parser("gemm", help="run one dgemm and show its cost breakdown")
    s.add_argument("--m", type=int, default=300)
    s.add_argument("--k", type=int, default=200)
    s.add_argument("--n", type=int, default=250)
    s.add_argument("--algorithm", default="standard")
    s.add_argument("--layout", default="LZ")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_gemm)

    return p


def _write_run_manifest(args, argv: list[str] | None) -> None:
    """Best-effort provenance manifest for the subcommand that just ran."""
    try:
        manifest = obs.build_manifest(
            command=args.command,
            argv=argv,
            seed=getattr(args, "seed", None),
            jobs=getattr(args, "jobs", None),
        )
        obs.write_manifest(
            obs.obs_output_dir() / "manifests" / f"{args.command}.json", manifest
        )
    except OSError:
        manifest = None  # read-only checkout etc. — must never fail a run
    # Sweep figures' obs metrics feed the perf-history store.
    figure = FIGURES.get(args.command)
    if figure is not None and figure.points is not None and obs.enabled():
        _append_run_history(args.command, manifest)


def _append_run_history(command: str, manifest) -> None:
    """Append the run's obs metrics to the ``cli`` history stream."""
    from repro.perf import HistoryStore, history_enabled, record_from_obs

    if not history_enabled():
        return
    try:
        record = record_from_obs(source=f"cli:{command}", manifest=manifest)
        if record["metrics"]:
            HistoryStore().append(record, stream="cli")
    except OSError:
        pass  # same contract as the manifest: history must never fail a run


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    args.fn(args)
    # report writes its own manifest; serve writes its own session
    # history record on shutdown.
    if args.command not in ("report", "serve"):
        _write_run_manifest(args, argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
