#!/usr/bin/env python
"""Perf smoke test for the vectorized memory-system engines.

Times the batched engines against the scalar reference simulators and
writes ``BENCH_memsim.json`` with accesses/sec per engine plus the
measured speedups.  CI runs this to catch perf regressions: the
vectorized 8-way set-associative and fully-associative (TLB/3C) paths
must stay an order of magnitude ahead of the reference engines.

The speedup comparison runs on uniform-random streams: real traces are
locality-heavy, which lets the scalar references take their cheap hit
paths while random streams exercise both sides' steady-state per-access
cost.  Real-trace throughput (the standard/L_Z n=256 multiply, the unit
of work a sweep point pays on a cache miss) is reported alongside.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py [output.json]
        [--append-history] [--history-dir DIR]

``--append-history`` also appends the run as one content-addressed
record to the ``perf_smoke`` stream of the benchmark-history store
(``.benchmarks/history/``), which feeds the noise-tolerance bands and
trajectory views of ``python -m repro perf``.

Environment:

* ``SMOKE_ACCESSES`` — stream length (default 1_000_000).
* ``SMOKE_SKIP_REFERENCE=1`` — skip the slow scalar baselines (the
  JSON then carries engine throughputs only, no speedup ratios).
* ``SMOKE_JOBS`` — worker count for the parallel-sweep comparison
  (default 4).  The >=2x speedup floor is only enforced when the box
  actually has >= 4 CPUs; the measured ratio is recorded regardless.
* ``SMOKE_SPEEDUP_FLOOR`` — required engine-vs-reference speedup
  (default 10).  Lower it when benchmarking on loaded/1-core hosts
  where the ratio is noisy; CI keeps the default.
* ``SMOKE_SYNTHESIS_FLOOR`` — required symbolic-trace-synthesis vs
  executed-tracer speedup on the fig6sim grid (default 5).
* ``SMOKE_MULTICONFIG_FLOOR`` — required build-once-query-many
  reuse-distance-profile speedup vs per-config replay (one
  ``simulate_hierarchy`` per machine) over the 16-machine
  associativity/TLB grid (default 3).
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.analysis.parallel import fig4_points, run_sweep
from repro.layouts.registry import PAPER_LAYOUTS
from repro.memsim.cache import LRUCache, simulate_direct_mapped
from repro.memsim.engines import lru_hit_mask, simulate_set_associative
from repro.memsim.hierarchy import simulate_hierarchy
from repro.memsim.machine import (
    CacheGeometry,
    assoc_scaled,
    modern_like,
    ultrasparc_like,
)
from repro.memsim.multiconfig import build_profile
from repro.memsim.store import (
    TraceStore,
    _multiply_fields,
    cached_multiply_stats,
    default_store,
)
from repro.memsim.synthesis import expand_table, synthesize_multiply
from repro.memsim.trace import expand_trace, trace_multiply
from repro.obs.manifest import build_manifest

N = 256
TILE = 16
TARGET = int(os.environ.get("SMOKE_ACCESSES", 1_000_000))


def synthesized_trace(n: int, tile: int, machine) -> np.ndarray:
    """The standard/L_Z multiply's address trace, built as a profile miss
    builds it: symbolic synthesis, then vectorized expansion."""
    table, sizes = synthesize_multiply("standard", "LZ", n, tile)
    return expand_table(table, machine, sizes)


def refuse_build() -> np.ndarray:
    raise AssertionError("a warm profile read rebuilt its trace")


def timed(fn, *args, repeats: int = 3):
    """Best-of-N wall time and the last result."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def oracle_fa_misses(keys: np.ndarray, capacity: int) -> int:
    """Dict-based fully-associative LRU (the pre-vectorization TLB path)."""
    stack: dict[int, None] = {}
    misses = 0
    for k in keys.tolist():
        if k in stack:
            del stack[k]
        else:
            misses += 1
            if len(stack) >= capacity:
                del stack[next(iter(stack))]
        stack[k] = None
    return misses


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="perf smoke test for the vectorized memory-system engines"
    )
    parser.add_argument("out", nargs="?", default="BENCH_memsim.json",
                        help="output JSON path (the 'latest' view)")
    parser.add_argument("--append-history", action="store_true",
                        help="also append a content-addressed record to the "
                             "benchmark-history store (.benchmarks/history/)")
    parser.add_argument("--history-dir", default=None,
                        help="history store root (default: "
                             "REPRO_PERF_HISTORY_DIR, else .benchmarks/history)")
    return parser.parse_args(argv)


def append_history(results: dict, history_dir=None):
    """One provenance-linked history record for this run; returns
    ``(record, stream_path)`` or None when the store is disabled."""
    from repro.perf.history import HistoryStore, history_enabled, record_from_bench

    if not history_enabled():
        print("history: disabled (REPRO_PERF_HISTORY=0)")
        return None
    record = record_from_bench(results, source="perf_smoke")
    path = HistoryStore(history_dir).append(record, stream="perf_smoke")
    print(f"history: appended {record['record_id'][:12]} to {path}")
    return record, path


def main(argv=None) -> None:
    args = parse_args(argv)
    out_path = args.out
    skip_ref = os.environ.get("SMOKE_SKIP_REFERENCE") == "1"
    mach = ultrasparc_like()
    modern = modern_like()

    # Cold: build the real trace, the work a profile miss pays first.
    t0 = time.perf_counter()
    addresses = synthesized_trace(N, TILE, mach)
    expand_seconds = time.perf_counter() - t0

    # Warm: one stats call fills the content-addressed store, then a
    # fresh handle on the same root answers the trace's profile from
    # its .npz, the read a warm sweep pays before each query.  The
    # counters make cache behaviour visible (a keying regression that
    # silently rebuilds everything shows up as misses on a warm store).
    store = default_store()
    store.reset_counters()
    cached_multiply_stats("standard", "LZ", N, TILE, mach, store=store)
    cold_counters = store.counters()
    fresh = TraceStore(root=store.root)
    fields = _multiply_fields("standard", "LZ", N, TILE, "accumulate", None)
    t0 = time.perf_counter()
    fresh.profile(fields, mach, refuse_build)
    warm_seconds = time.perf_counter() - t0
    assert fresh.counters()["profile_hits"] == 1, (
        f"warm profile read missed the store at {store.root}: "
        f"{fresh.counters()}"
    )
    if addresses.size < TARGET:
        addresses = np.tile(addresses, -(-TARGET // addresses.size))
    addresses = addresses[:TARGET]
    n = int(addresses.size)

    results: dict = {
        "trace": {
            "algorithm": "standard",
            "layout": "LZ",
            "n": N,
            "tile": TILE,
            "accesses": n,
            "expand_seconds": round(expand_seconds, 3),
            "warm_expand_seconds": round(warm_seconds, 4),
        },
        "trace_cache": {
            # No profile built: the store already held the trace's profile.
            "first_call_was_hit": cold_counters["profile_misses"] == 0,
            **store.counters(),
        },
        "engines": {},
    }
    c = store.counters()
    print(
        f"trace cache: profiles {c['profile_hits']} hit / "
        f"{c['profile_misses']} miss; "
        f"cold expand {expand_seconds:.3f}s, warm profile read "
        f"{warm_seconds:.4f}s"
    )

    def record(name, engine_seconds, ref_seconds=None):
        entry = {
            "seconds": round(engine_seconds, 4),
            "accesses_per_sec": round(n / engine_seconds),
        }
        if ref_seconds is not None:
            entry["reference_seconds"] = round(ref_seconds, 2)
            entry["speedup"] = round(ref_seconds / engine_seconds, 1)
        results["engines"][name] = entry
        rate = entry["accesses_per_sec"]
        speedup = f"  {entry.get('speedup', '-')}x vs reference" if ref_seconds else ""
        print(f"{name:28s} {engine_seconds:8.3f}s  {rate:>12,d} acc/s{speedup}")

    rng = np.random.default_rng(42)
    random_addresses = rng.integers(0, 1 << 22, n).astype(np.int64)

    # Direct-mapped (the paper-geometry L1 path; engine only, it has
    # been vectorized since the seed).
    sec, _ = timed(lambda: simulate_direct_mapped(random_addresses, mach.l1))
    record("direct_mapped_l1", sec)

    # 8-way set-associative LRU (modern geometry), random stream.
    sec, miss = timed(lambda: simulate_set_associative(random_addresses, modern.l1))
    if skip_ref:
        record("set_associative_8way", sec)
    else:
        rsec, rmiss = timed(
            lambda: LRUCache(modern.l1).access_many(random_addresses), repeats=2
        )
        assert np.array_equal(miss, rmiss), "engine diverged from oracle"
        record("set_associative_8way", sec, rsec)

    # Fully-associative LRU at TLB capacity (64 entries) over a random
    # page-id stream — the TLB / 3C-classification engine.  Reference:
    # the repo's validation oracle (LRUCache with a single-set
    # geometry); the seed's special-cased dict loop is timed alongside
    # for transparency (CPython dicts make it a much stronger baseline
    # than the general oracle).
    pages = rng.integers(0, 4096, n).astype(np.int64)
    sec, hits = timed(lambda: lru_hit_mask(pages, mach.tlb_entries))
    if skip_ref:
        record("fully_associative_lru", sec)
    else:
        fa_geom = CacheGeometry(
            mach.tlb_entries * mach.page, mach.page, mach.tlb_entries
        )
        rsec, rmiss = timed(
            lambda: LRUCache(fa_geom).access_many(pages * mach.page), repeats=2
        )
        assert np.array_equal(~hits, rmiss), "engine diverged from oracle"
        dsec, dmiss = timed(
            lambda: oracle_fa_misses(pages, mach.tlb_entries), repeats=2
        )
        assert int((~hits).sum()) == dmiss, "engine diverged from dict loop"
        record("fully_associative_lru", sec, rsec)
        results["engines"]["fully_associative_lru"]["seed_dict_seconds"] = round(
            dsec, 2
        )
        results["engines"]["fully_associative_lru"]["speedup_vs_seed_dict"] = round(
            dsec / sec, 1
        )

    # Whole-hierarchy simulation of the real n=256 trace (both levels
    # plus TLB) — the unit of work every sweep point pays on a cache miss.
    sec, stats = timed(lambda: simulate_hierarchy(addresses, mach))
    record("hierarchy_ultrasparc", sec)
    results["engines"]["hierarchy_ultrasparc"]["l1_miss_rate"] = round(
        stats.l1_miss_rate, 4
    )
    sec, _ = timed(lambda: simulate_hierarchy(addresses, modern))
    record("hierarchy_modern_8way", sec)

    if not skip_ref:
        floor = float(os.environ.get("SMOKE_SPEEDUP_FLOOR", "10"))
        for name in ("set_associative_8way", "fully_associative_lru"):
            speedup = results["engines"][name]["speedup"]
            assert speedup >= floor, (
                f"{name}: {speedup}x < required {floor}x vs reference"
            )
        print(f"speedup floor {floor}x: OK")

    # Symbolic trace synthesis vs the executed tracer, over the fig6sim
    # grid (both algorithms x all six paper layouts): same byte streams
    # (asserted), wall-clock dominated by event generation + expansion.
    synth_grid = [
        (alg, lay) for alg in ("standard", "strassen") for lay in PAPER_LAYOUTS
    ]
    synth_n, synth_tile = 48, 8

    def run_executed():
        total = 0
        for alg, lay in synth_grid:
            events, sizes = trace_multiply(alg, lay, synth_n, synth_tile)
            total += expand_trace(events, mach, sizes).size
        return total

    def run_synthesized():
        n_events = 0
        digests = []
        for alg, lay in synth_grid:
            table, sizes = synthesize_multiply(alg, lay, synth_n, synth_tile)
            n_events += table.n_events
            digests.append(expand_table(table, mach, sizes))
        return n_events, digests

    executed_seconds, _ = timed(run_executed, repeats=2)
    synth_seconds, (synth_events, synth_streams) = timed(run_synthesized, repeats=2)
    for (alg, lay), got in zip(synth_grid[:2], synth_streams[:2]):
        events, sizes = trace_multiply(alg, lay, synth_n, synth_tile)
        assert np.array_equal(got, expand_trace(events, mach, sizes)), (
            f"synthesized trace diverged from executed for {alg}/{lay}"
        )
    synth_speedup = executed_seconds / synth_seconds
    results["trace_synthesis"] = {
        "grid": [f"{alg}/{lay}" for alg, lay in synth_grid],
        "n": synth_n,
        "tile": synth_tile,
        "events": synth_events,
        "events_per_sec": round(synth_events / synth_seconds),
        "executed_seconds": round(executed_seconds, 3),
        "synthesized_seconds": round(synth_seconds, 3),
        "speedup": round(synth_speedup, 2),
    }
    print(
        f"trace synthesis (fig6sim grid, {len(synth_grid)} points): "
        f"executed {executed_seconds:.3f}s, synthesized {synth_seconds:.3f}s, "
        f"{synth_speedup:.2f}x, "
        f"{results['trace_synthesis']['events_per_sec']:,d} events/s"
    )
    synth_floor = float(os.environ.get("SMOKE_SYNTHESIS_FLOOR", "5"))
    assert synth_speedup >= synth_floor, (
        f"trace synthesis: {synth_speedup:.2f}x < required {synth_floor}x "
        f"vs executed tracer"
    )
    print(f"trace synthesis speedup floor {synth_floor}x: OK")

    # Parallel sweep executor: serial vs process-pool wall time over a
    # warm-cache fig4 sweep (the trace store is pre-warmed so both runs
    # pay identical simulation cost and the ratio isolates the pool).
    sweep_jobs = int(os.environ.get("SMOKE_JOBS", "4"))
    cpus = os.cpu_count() or 1
    points = fig4_points(
        n=96, tiles=(4, 8, 16, 32), algorithm="standard", layout="LZ",
        repeats=1, machine=mach, include_memsim=True,
    )
    run_sweep(points, jobs=1)  # warm the store
    t0 = time.perf_counter()
    serial_rows = run_sweep(points, jobs=1)
    serial_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel_rows = run_sweep(points, jobs=sweep_jobs)
    parallel_seconds = time.perf_counter() - t0
    sim_keys = ("n", "tile", "sim_cycles", "sim_cycles_per_flop", "l1_miss_rate")
    assert [{k: r[k] for k in sim_keys} for r in serial_rows] == [
        {k: r[k] for k in sim_keys} for r in parallel_rows
    ], "parallel sweep diverged from serial on simulated fields"
    sweep_speedup = serial_seconds / parallel_seconds
    results["parallel_sweep"] = {
        "figure": "fig4",
        "n": 96,
        "tiles": [p.kwargs()["tile"] for p in points],
        "jobs": sweep_jobs,
        "cpu_count": cpus,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(sweep_speedup, 2),
    }
    print(
        f"parallel sweep (fig4, jobs={sweep_jobs}, {cpus} cpus): "
        f"serial {serial_seconds:.3f}s, parallel {parallel_seconds:.3f}s, "
        f"{sweep_speedup:.2f}x"
    )
    if cpus >= 4 and sweep_jobs >= 4:
        assert sweep_speedup >= 2.0, (
            f"parallel sweep speedup {sweep_speedup:.2f}x < required 2x "
            f"at jobs={sweep_jobs} on {cpus} CPUs"
        )
        print("parallel sweep speedup floor 2x: OK")
    else:
        print(f"parallel sweep speedup floor skipped ({cpus} CPUs)")

    # Multi-config simulation: one reuse-distance profile vs per-config
    # replay (one simulate_hierarchy, i.e. one profile at the machine's
    # own caps, per machine) over a 16-machine associativity/TLB grid
    # (all in one set family, so a single build answers every member).
    # The two must agree exactly.
    mc_machines = [
        assoc_scaled(l1_assoc=l1a, l2_assoc=l2a, tlb_entries=tlb)
        for l1a in (1, 2, 4, 8)
        for l2a in (1, 4)
        for tlb in (8, 32)
    ]
    mc_n, mc_tile = 64, 8
    mc_addresses = synthesized_trace(mc_n, mc_tile, mc_machines[0])

    def run_replay():
        return [simulate_hierarchy(mc_addresses, m) for m in mc_machines]

    def run_profiled():
        prof = build_profile(mc_addresses, mc_machines[0])
        return [prof.query(m) for m in mc_machines]

    replay_seconds, replay_stats = timed(run_replay, repeats=2)
    profiled_seconds, profiled_stats = timed(run_profiled, repeats=2)
    assert profiled_stats == replay_stats, (
        "profile-derived stats diverged from per-config replay"
    )
    mc_speedup = replay_seconds / profiled_seconds
    mc_total_misses = sum(
        s.l1_misses + s.l2_misses + s.tlb_misses for s in profiled_stats
    )
    results["multiconfig"] = {
        "configs": len(mc_machines),
        "n": mc_n,
        "tile": mc_tile,
        "accesses": int(mc_addresses.size),
        "replay_seconds": round(replay_seconds, 3),
        "profiled_seconds": round(profiled_seconds, 3),
        "speedup": round(mc_speedup, 2),
        "total_misses": int(mc_total_misses),
    }
    print(
        f"multiconfig ({len(mc_machines)} configs, {mc_addresses.size:,d} "
        f"accesses): replay {replay_seconds:.3f}s, profiled "
        f"{profiled_seconds:.3f}s, {mc_speedup:.2f}x"
    )
    mc_floor = float(os.environ.get("SMOKE_MULTICONFIG_FLOOR", "3"))
    assert mc_speedup >= mc_floor, (
        f"multiconfig: {mc_speedup:.2f}x < required {mc_floor}x vs "
        f"per-config replay"
    )
    print(f"multiconfig speedup floor {mc_floor}x: OK")

    results["trace_cache"].update(store.counters())
    results["provenance"] = build_manifest(
        command="perf_smoke", store=store, machine=mach
    )
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")
    if args.append_history:
        append_history(results, history_dir=args.history_dir)


if __name__ == "__main__":
    main()
