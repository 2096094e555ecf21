"""Run-provenance manifests for experiment and benchmark outputs.

Every number this repo produces is a function of (code, seed, machine
model, cached profiles and stats).  A manifest pins all four next to
the output so a perf-history record or a printed figure can be traced
back to the exact configuration that produced it:

* ``git`` — commit SHA and dirty flag (best-effort; absent outside a
  work tree or without a ``git`` binary);
* ``machine`` — the :class:`~repro.memsim.machine.MachineModel` fields
  plus a sha256 fingerprint over their canonical JSON;
* ``trace_cache`` — hit/miss counters and the content addresses the run
  touched (capped; the cap and total are recorded);
* ``obs`` — metrics snapshot and span counts, when the layer is on.

Manifests land under ``.benchmarks/manifests/`` by default
(``REPRO_OBS_DIR`` relocates the whole obs output directory) and are
plain JSON — no schema registry, just ``schema_version`` for forward
compatibility.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from repro import knobs
from repro.clock import wall_clock
from repro.obs import core, metrics

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "git_revision",
    "machine_fingerprint",
    "obs_output_dir",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 1

#: Manifests list at most this many touched cache keys (plus the total).
_MAX_CONTENT_ADDRESSES = 256


def _repo_root() -> Path:
    # src/repro/obs/manifest.py -> repo root is three levels above src/.
    return Path(__file__).resolve().parents[3]


def obs_output_dir() -> Path:
    """Directory for obs artifacts (traces, manifests, reports)."""
    env = knobs.path("REPRO_OBS_DIR")
    return Path(env) if env else _repo_root() / ".benchmarks" / "obs"


def git_revision() -> dict | None:
    """``{"sha": ..., "dirty": ...}`` of the repo, or None if unknown."""
    try:
        root = _repo_root()
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return {
            "sha": sha.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def machine_fingerprint(machine) -> dict:
    """Machine-model fields plus a sha256 digest over their canonical JSON."""
    fields = dataclasses.asdict(machine)
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return {
        "fields": fields,
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def build_manifest(
    *,
    command: str | None = None,
    argv: list[str] | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    machine=None,
    store=None,
    extra: dict | None = None,
) -> dict:
    """Assemble a provenance manifest for the current process state.

    ``store`` defaults to the process-wide trace store; pass ``False``
    to omit the trace-cache section entirely.  ``jobs`` records the
    sweep worker count the run used (``REPRO_JOBS`` / ``--jobs``), so
    parallel and serial runs stay distinguishable after the fact.
    """
    if store is None:
        from repro.memsim.store import default_store

        store = default_store()
    manifest: dict = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": wall_clock(),
        "command": command,
        "argv": list(argv if argv is not None else sys.argv),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git": git_revision(),
        "knobs": {
            name: info["value"] for name, info in knobs.effective().items()
        },
    }
    if seed is not None:
        manifest["seed"] = int(seed)
    if jobs is not None:
        manifest["jobs"] = int(jobs)
    if machine is not None:
        manifest["machine"] = machine_fingerprint(machine)
    if store:
        touched = store.content_addresses()
        manifest["trace_cache"] = {
            "root": str(store.root),
            **store.counters(),
            "touched_total": len(touched),
            "content_addresses": touched[:_MAX_CONTENT_ADDRESSES],
        }
    if core.enabled():
        manifest["obs"] = {
            "metrics": metrics.registry().snapshot(),
            "span_counts": core.collector().counts(),
        }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Write the manifest as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".tmp.{os.getpid()}.{path.name}")
    try:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path
