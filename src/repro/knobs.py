"""Central registry of ``REPRO_*`` environment knobs.

Every environment variable the library reads is *declared* here — name,
type, default, and a one-line doc — and read through the typed accessors
(:func:`flag` / :func:`integer` / :func:`path` / :func:`raw`).  This is
the only module allowed to touch ``os.environ`` directly; the repo lint
(:mod:`repro.lint`, rule **I5**) enforces that, and rule **I4** enforces
that any ``REPRO_*`` name mentioned anywhere in the source tree has a
declaration below.  The payoff is a single place where ``python -m
repro report`` can dump the *effective* configuration of a run
(:func:`effective` / :func:`render_effective`) and provenance manifests
can pin it.

Flag parsing is uniform: a set value is truthy iff it is one of
``{"1", "true", "yes", "on"}`` (case-insensitive, stripped); an unset
variable takes the declared default.  The environment stays the source
of truth — accessors re-read it on every call, so flags flipped by
tests or inherited by sweep worker processes behave identically to
direct ``os.environ`` reads.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import os

__all__ = [
    "BUDGET_DIRECTIONS",
    "Knob",
    "PERF_BUDGETS",
    "PerfBudget",
    "REGISTRY",
    "budget_for",
    "declare",
    "declare_budget",
    "declared_budgets",
    "declared_names",
    "effective",
    "flag",
    "integer",
    "path",
    "raw",
    "render_effective",
]

#: Accepted spellings of a truthy flag value.
TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Knob value kinds, for documentation and the effective-config dump.
KINDS = ("flag", "int", "str", "path")


@dataclasses.dataclass(frozen=True)
class Knob:
    """Declaration of one environment knob."""

    name: str
    kind: str  # one of KINDS
    default: bool | int | str | None
    doc: str

    def parse(self, value: str | None) -> bool | int | str | None:
        """Effective typed value for a raw environment string."""
        if value is None or not value.strip():
            return self.default
        value = value.strip()
        if self.kind == "flag":
            return value.lower() in TRUTHY
        if self.kind == "int":
            try:
                return int(value)
            except ValueError:
                raise ValueError(
                    f"{self.name} must be an integer, got {value!r}"
                ) from None
        return value


#: All declared knobs, by name.
REGISTRY: dict[str, Knob] = {}


def declare(name: str, kind: str, default: bool | int | str | None, doc: str) -> Knob:
    """Register one knob declaration (module-load time only)."""
    if kind not in KINDS:
        raise ValueError(f"unknown knob kind {kind!r}; known: {KINDS}")
    if name in REGISTRY:
        raise ValueError(f"knob {name} declared twice")
    knob = Knob(name, kind, default, doc)
    REGISTRY[name] = knob
    return knob


# ---------------------------------------------------------------------------
# Declarations — the canonical list of every REPRO_* environment knob.
# ---------------------------------------------------------------------------

declare(
    "REPRO_OBS",
    "flag",
    False,
    "Enable the observability layer (spans + metrics) at process start; "
    "`python -m repro report` turns it on programmatically.",
)
declare(
    "REPRO_OBS_DIR",
    "path",
    None,
    "Directory for obs artifacts (span JSONL, manifests, schedule traces); "
    "default: <repo>/.benchmarks/obs.",
)
declare(
    "REPRO_JOBS",
    "int",
    None,
    "Sweep worker process count for the figure drivers "
    "(1 = exact serial path; default: os.cpu_count()).",
)
declare(
    "REPRO_DETERMINISTIC_TIMING",
    "flag",
    False,
    "Zero every wall-clock measurement (timed code still runs) so driver "
    "output is byte-identical across runs and worker counts.",
)
declare(
    "REPRO_TRACE_CACHE",
    "flag",
    True,
    "Use the content-addressed on-disk profile/stats cache; set to 0 to "
    "recompute everything and touch no cache files.",
)
declare(
    "REPRO_TRACE_CACHE_DIR",
    "path",
    None,
    "Root directory of the trace cache; default: "
    "<repo>/.benchmarks/tracecache.",
)
declare(
    "REPRO_PERF_HISTORY",
    "flag",
    True,
    "Append a benchmark-history record (repro.perf) after perf_smoke "
    "runs, CLI sweeps, and bench sessions; set to 0 to keep "
    ".benchmarks/history untouched.",
)
declare(
    "REPRO_PERF_HISTORY_DIR",
    "path",
    None,
    "Root of the append-only benchmark history store; default: "
    "<repo>/.benchmarks/history.",
)
declare(
    "REPRO_SERVE_HOST",
    "str",
    "127.0.0.1",
    "Bind address of the long-lived simulation service "
    "(`python -m repro serve`).",
)
declare(
    "REPRO_SERVE_PORT",
    "int",
    0,
    "TCP port of the simulation service; 0 (the default) binds an "
    "ephemeral port, printed on the readiness line.",
)
declare(
    "REPRO_SERVE_MAX_RETRIES",
    "int",
    2,
    "How many times the service re-runs a sweep job after its worker "
    "pool breaks (e.g. a worker was OOM-killed) before failing the job.",
)
declare(
    "REPRO_SERVE_TEST_HOOKS",
    "flag",
    False,
    "Expose the service's fault-injection test figure ('fault'); never "
    "set outside the black-box service test suite.",
)
declare(
    "REPRO_MULTICONFIG",
    "flag",
    True,
    "retired: no effect",
)


# ---------------------------------------------------------------------------
# Performance budgets — the `perf_budgets` table behind `repro perf check`.
#
# Each entry declares, for one flattened BENCH_memsim.json metric key (or
# an fnmatch pattern over keys), which direction is "better" and how much
# regression in the bad direction the gate tolerates before failing.
# Direction "exact" marks *structural* metrics (event counts, stream
# lengths) that are deterministic functions of the code and must match
# the baseline bit-for-bit — these are the only keys gated under
# REPRO_DETERMINISTIC_TIMING.  The repo lint (rule I6) enforces that
# keys are unique and snake_case.
# ---------------------------------------------------------------------------

#: Budget directions: which way a metric moves when things get better.
BUDGET_DIRECTIONS = ("lower_better", "higher_better", "exact")


@dataclasses.dataclass(frozen=True)
class PerfBudget:
    """Regression budget for one flattened metric key (or glob pattern)."""

    key: str
    direction: str  # one of BUDGET_DIRECTIONS
    max_regression: float  # allowed fractional move in the bad direction
    doc: str


#: All declared budgets, by key, in declaration order (first match wins).
PERF_BUDGETS: dict[str, PerfBudget] = {}


def declare_budget(
    key: str, direction: str, max_regression: float, doc: str
) -> PerfBudget:
    """Register one perf budget (module-load time only)."""
    if direction not in BUDGET_DIRECTIONS:
        raise ValueError(
            f"unknown budget direction {direction!r}; known: {BUDGET_DIRECTIONS}"
        )
    if key in PERF_BUDGETS:
        raise ValueError(f"perf budget {key} declared twice")
    if max_regression < 0:
        raise ValueError(f"max_regression must be >= 0, got {max_regression}")
    budget = PerfBudget(key, direction, float(max_regression), doc)
    PERF_BUDGETS[key] = budget
    return budget


declare_budget(
    "engines.*.speedup",
    "higher_better",
    0.40,
    "Vectorized-engine lead over the scalar reference simulators; the "
    "repo's first hard-won perf result.",
)
declare_budget(
    "engines.*.accesses_per_sec",
    "higher_better",
    0.60,
    "Raw engine throughput (machine-dependent; the wide band absorbs "
    "host differences, the speedup budgets catch code regressions).",
)
declare_budget(
    "trace_synthesis.speedup",
    "higher_better",
    0.40,
    "Symbolic trace synthesis vs the executed tracer on the fig6sim "
    "grid (the PR 6 ~7x win).",
)
declare_budget(
    "trace_synthesis.events_per_sec",
    "higher_better",
    0.60,
    "Synthesis event-generation throughput.",
)
declare_budget(
    "parallel_sweep.speedup",
    "higher_better",
    0.60,
    "Process-pool sweep speedup over the serial path (only meaningful "
    "on multi-core hosts; perf_smoke records it regardless).",
)
declare_budget(
    "trace.expand_seconds",
    "lower_better",
    2.0,
    "Trace build (synthesis + expansion) of the standard/LZ n=256 "
    "multiply, the work a profile miss pays before its build "
    "(dominated by one-off work; generous band).",
)
declare_budget(
    "trace.warm_expand_seconds",
    "lower_better",
    2.0,
    "Warm-store read of that trace's reuse profile (.npz) by a fresh "
    "store handle — the cache-hit path must stay cheap.",
)
declare_budget(
    "trace.accesses",
    "exact",
    0.0,
    "Structural: length of the expanded n=256 address stream; a change "
    "means the tracer or tiling changed, not the hardware.",
)
declare_budget(
    "trace_synthesis.events",
    "exact",
    0.0,
    "Structural: symbolic event count over the fig6sim grid; must be "
    "byte-identical to the executed tracer's.",
)
declare_budget(
    "serve.request.p99",
    "lower_better",
    2.0,
    "Service latency SLO: 99th-percentile request handling time over a "
    "`repro serve` session (nearest-rank over the session histogram; "
    "the wide band absorbs host scheduling noise).",
)
declare_budget(
    "serve.sweep.rows",
    "exact",
    0.0,
    "Structural: total sweep rows served across a fixed service-session "
    "workload; the only serve key gated under "
    "REPRO_DETERMINISTIC_TIMING, bit-for-bit.",
)
declare_budget(
    "multiconfig.speedup",
    "higher_better",
    0.40,
    "Build-once-query-many reuse-distance profile vs per-config "
    "streaming replay over the perf_smoke machine grid.",
)
declare_budget(
    "multiconfig.total_misses",
    "exact",
    0.0,
    "Structural: total profile-derived misses (L1+L2+TLB) summed over "
    "the perf_smoke machine grid; must match the streaming simulators "
    "bit-for-bit.",
)


def declared_budgets() -> dict[str, PerfBudget]:
    """Every declared budget by key, in declaration order."""
    return dict(PERF_BUDGETS)


def budget_for(key: str) -> PerfBudget | None:
    """The budget governing one flattened metric key, or None.

    Exact key matches win over patterns; among patterns, declaration
    order decides (first match).
    """
    exact = PERF_BUDGETS.get(key)
    if exact is not None:
        return exact
    for budget in PERF_BUDGETS.values():
        if fnmatch.fnmatchcase(key, budget.key):
            return budget
    return None


# ---------------------------------------------------------------------------
# Typed accessors — the only os.environ read sites in the library.
# ---------------------------------------------------------------------------


def _knob(name: str) -> Knob:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"undeclared knob {name!r}; declare it in repro.knobs first "
            f"(known: {sorted(REGISTRY)})"
        ) from None


def raw(name: str) -> str | None:
    """Raw environment string of a declared knob (None when unset)."""
    _knob(name)
    return os.environ.get(name)


def flag(name: str) -> bool:
    """Effective boolean value of a declared flag knob."""
    knob = _knob(name)
    if knob.kind != "flag":
        raise TypeError(f"knob {name} is {knob.kind}-kind, not flag")
    return bool(knob.parse(raw(name)))


def integer(name: str) -> int | None:
    """Effective integer value of a declared int knob (None = unset)."""
    knob = _knob(name)
    if knob.kind != "int":
        raise TypeError(f"knob {name} is {knob.kind}-kind, not int")
    value = knob.parse(raw(name))
    return None if value is None else int(value)


def path(name: str) -> str | None:
    """Effective path/string value of a declared knob (None = unset)."""
    knob = _knob(name)
    if knob.kind not in ("path", "str"):
        raise TypeError(f"knob {name} is {knob.kind}-kind, not path/str")
    value = knob.parse(raw(name))
    return None if value is None else str(value)


def declared_names() -> frozenset[str]:
    """Names of every declared knob (the rule-I4 ground truth)."""
    return frozenset(REGISTRY)


def environ_snapshot() -> dict[str, str]:
    """Raw values of every ``REPRO_``-prefixed environment variable.

    Test-isolation support: the suite's autouse fixture snapshots the
    knob environment before each test and restores it afterwards with
    :func:`environ_restore`, so a test (or the CLI paths it drives —
    ``repro report --jobs`` mutates ``REPRO_JOBS`` in-process) can never
    leak knob state into a later test or a subprocess it spawns.  Lives
    here because this module is the only sanctioned ``os.environ``
    access point (lint rule I5).
    """
    return {
        name: value
        for name, value in os.environ.items()
        if name.startswith("REPRO_")
    }


def environ_restore(snapshot: dict[str, str]) -> None:
    """Restore the ``REPRO_*`` environment to a prior snapshot exactly:
    variables set since the snapshot are removed, changed ones reset."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        if name not in snapshot:
            del os.environ[name]
    for name, value in snapshot.items():
        os.environ[name] = value


def effective() -> dict[str, dict[str, object]]:
    """Effective configuration snapshot: every knob's raw and parsed
    value plus whether it came from the environment or the default."""
    out: dict[str, dict[str, object]] = {}
    for name in sorted(REGISTRY):
        knob = REGISTRY[name]
        value = raw(name)
        out[name] = {
            "kind": knob.kind,
            "raw": value,
            "value": knob.parse(value),
            "source": "env" if value is not None else "default",
            "doc": knob.doc,
        }
    return out


def render_effective() -> str:
    """Human-readable effective-config table for ``repro report``."""
    rows = effective()
    name_w = max(len(n) for n in rows)
    lines = ["effective knobs (source: env | default):"]
    for name, info in rows.items():
        lines.append(
            f"  {name:<{name_w}}  {str(info['value']):<10} [{info['source']}]"
        )
    return "\n".join(lines)
