"""Trace-store concurrency stress tests.

Sweep workers share one content-addressed :class:`TraceStore` root on
disk with no locking — correctness rests entirely on the atomic
tmp-then-``os.replace`` publish.  The artifact under attack is a
trace's reuse profile (``.npz``), read and written through
:meth:`TraceStore.profile`; each profile miss builds the trace once,
which is what the build log counts.  These tests attack that design:

* **cold race** — N processes released by a barrier all miss the same
  key at once.  Every process must read back the identical artifact,
  and the total recompute count must stay within the race window (at
  most one build per racing process, at least one overall — never a
  torn or short read).
* **warm storm** — N processes hammer a pre-populated key; zero
  recomputes are allowed.
* **mid-write crash** — a child is SIGKILLed after writing *half* an
  artifact to the store's real tmp-file path.  The partial file must
  never be visible at the final path, and later readers must rebuild
  cleanly around the debris.
* **corrupt artifact** — garbage at the final path must be treated as
  a miss (rebuild), not propagated, even when N processes hit it
  concurrently.

Everything uses the ``fork`` start method (the suite runs on Linux) so
the worker functions and barriers need no import gymnastics.
"""

import io
import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.memsim import store as store_mod
from repro.memsim.machine import scaled
from repro.memsim.multiconfig import ReuseProfile, build_profile
from repro.memsim.store import TraceStore

MACH = scaled(4)
FIELDS = {"src": "synthetic-test", "n": 64, "variant": "stress"}

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="stress tests use the fork start method",
)


def _expected_array() -> np.ndarray:
    return (np.arange(4096, dtype=np.int64) * 64) % 8192


def _digest(prof: ReuseProfile) -> list:
    """The profile's content as plain JSON-able lists."""
    return [
        prof.accesses,
        prof.l1_hist.tolist(),
        prof.tlb_hist.tolist(),
        {str(a): h.tolist() for a, h in sorted(prof.l2.items())},
    ]


def _expected_digest() -> list:
    return _digest(build_profile(_expected_array(), MACH))


def _load(path) -> ReuseProfile:
    with open(path, "rb") as fh:
        return ReuseProfile.load(fh)


def _worker(root, build_log, barrier, out_dir):
    """One racing process: open the shared store, get-or-build the
    profile, report counters and a content digest to the parent via
    JSON."""
    store = TraceStore(root=root)

    def build():
        # Log every trace build (one per profile miss) so the parent can
        # bound duplicate work.
        with open(os.path.join(build_log, f"build-{os.getpid()}"), "w") as fh:
            fh.write(str(os.getpid()))
        return _expected_array()

    barrier.wait()
    prof = store.profile(FIELDS, MACH, build)
    result = {
        "pid": os.getpid(),
        "counters": store.counters(),
        "accesses": prof.accesses,
        "digest": _digest(prof),
        "equal": _digest(prof) == _expected_digest(),
    }
    path = os.path.join(out_dir, f"result-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)


def _run_workers(n, root, tmp_path):
    ctx = multiprocessing.get_context("fork")
    build_log = tmp_path / "builds"
    out_dir = tmp_path / "results"
    build_log.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    barrier = ctx.Barrier(n)
    procs = [
        ctx.Process(
            target=_worker, args=(str(root), str(build_log), barrier, str(out_dir))
        )
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0, f"worker exited with {p.exitcode}"
    results = [
        json.loads(f.read_text()) for f in sorted(out_dir.glob("result-*.json"))
    ]
    assert len(results) == n
    builds = len(list(build_log.glob("build-*")))
    return results, builds


def _profile_path(store: TraceStore) -> "os.PathLike":
    return store._path(store_mod._profile_key(FIELDS, MACH))


N = 4


class TestColdRace:
    def test_concurrent_cold_get_put(self, tmp_path):
        root = tmp_path / "store"
        results, builds = _run_workers(N, root, tmp_path)
        # No torn reads: every process saw the full, correct artifact.
        assert all(r["equal"] for r in results)
        assert len({json.dumps(r["digest"]) for r in results}) == 1
        # Bounded duplicate work: between 1 (best case — one winner,
        # everyone else hits) and N (worst case — all race through the
        # miss window before any publish lands).
        misses = sum(r["counters"]["profile_misses"] for r in results)
        assert misses == builds
        assert 1 <= builds <= N
        # The published artifact is valid and byte-stable afterwards.
        store = TraceStore(root=root)
        prof = store.profile(FIELDS, MACH, lambda: pytest.fail("unexpected rebuild"))
        assert _digest(prof) == _expected_digest()
        assert store.counters()["profile_hits"] == 1


class TestWarmStorm:
    def test_concurrent_warm_gets_never_recompute(self, tmp_path):
        root = tmp_path / "store"
        TraceStore(root=root).profile(FIELDS, MACH, _expected_array)
        results, builds = _run_workers(N, root, tmp_path)
        assert builds == 0
        assert all(r["counters"]["profile_misses"] == 0 for r in results)
        assert all(r["counters"]["profile_hits"] == 1 for r in results)
        assert all(r["equal"] for r in results)


def _crash_mid_write(root):
    """Write the first half of a real ``.npz`` artifact to the store's
    actual tmp path, flush it to disk, then die without cleanup —
    exactly what a worker killed mid-publish leaves behind."""
    store = TraceStore(root=root)
    final = _profile_path(store)
    final.parent.mkdir(parents=True, exist_ok=True)
    buf = io.BytesIO()
    build_profile(_expected_array(), MACH).save(buf)
    blob = buf.getvalue()
    tmp = final.with_name(f".tmp.{os.getpid()}.{final.name}")
    with open(tmp, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
        fh.flush()
        os.fsync(fh.fileno())
    os.kill(os.getpid(), signal.SIGKILL)


class TestMidWriteCrash:
    def test_partial_tmp_file_never_published_and_store_recovers(self, tmp_path):
        root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(target=_crash_mid_write, args=(str(root),))
        victim.start()
        victim.join(timeout=60)
        assert victim.exitcode == -signal.SIGKILL
        store = TraceStore(root=root)
        final = _profile_path(store)
        # The torn write stayed on the tmp path: nothing was published.
        assert not final.exists()
        debris = list(final.parent.glob(".tmp.*"))
        assert debris, "crash left no tmp file — the scenario didn't happen"
        # Readers racing over the debris rebuild cleanly...
        results, builds = _run_workers(N, root, tmp_path)
        assert all(r["equal"] for r in results)
        assert 1 <= builds <= N
        # ...and the store ends valid: published artifact loads, and the
        # debris is inert (ignored by lookup, never loaded).
        assert _digest(_load(final)) == _expected_digest()


class TestCorruptArtifact:
    def test_concurrent_reads_of_corrupt_file_rebuild(self, tmp_path):
        root = tmp_path / "store"
        store = TraceStore(root=root)
        final = _profile_path(store)
        final.parent.mkdir(parents=True, exist_ok=True)
        final.write_bytes(b"PK\x03\x04 corrupted beyond repair")
        results, builds = _run_workers(N, root, tmp_path)
        assert all(r["equal"] for r in results)
        assert 1 <= builds <= N
        assert _digest(_load(final)) == _expected_digest()
