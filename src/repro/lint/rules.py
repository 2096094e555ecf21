"""The repo's lint rules (I1-I6).

Rules
-----

I1  The scalar reference cache simulators (``simulate_lru``,
    ``LRUCache``) must not be *called* outside the cache module itself,
    the vectorized engines that validate against them, tests, and
    benchmarks.  Everything else must go through the vectorized
    engines (:mod:`repro.memsim.engines`) — a scalar simulator call on a
    hot path silently turns an O(n) sweep into hours.

I2  ``np.argsort`` / ``np.sort`` in order-sensitive modules
    (``repro.memsim``, ``repro.sanitize``) must pass ``kind="stable"``.
    These modules reconstruct per-line / per-region access runs from
    sorted program order; an unstable sort reorders equal keys and
    corrupts ownership-transition and race-pair counts
    nondeterministically.

I3  No direct ``time.time`` / ``time.perf_counter`` (or ``monotonic`` /
    ``process_time``) outside :mod:`repro.clock`.  The clock module is
    the determinism seam: ``REPRO_DETERMINISTIC_TIMING`` zeroes
    measurements only if every reader goes through it.  Benchmarks
    measure real time by design and are exempt.

I4  Every ``REPRO_*`` environment-knob name appearing anywhere in the
    source must be declared in :mod:`repro.knobs` (kind, default, doc),
    so ``python -m repro report`` can dump the effective configuration
    and manifests can pin it.  Matching is lexical over string
    constants, so docstrings advertising an undeclared knob fail too.

I5  No bare ``os.environ`` *reads* outside the knob registry
    (:mod:`repro.knobs`).  Writes are allowed — the CLI exports
    ``REPRO_JOBS`` to sweep workers — but reads bypass declaration,
    typing, and the effective-config dump.

I6  The perf/metrics namespace is coherent: every ``declare_budget``
    key is declared exactly once and is dotted snake_case (``*``
    allowed as a whole glob segment), and every metric name published
    through the registry helpers (``obs.add`` / ``obs.gauge`` /
    ``obs.observe``) is dotted snake_case and bound to exactly one
    instrument kind repo-wide — the same name used as both a counter
    and a histogram would silently split one trajectory into two in
    the perf-history store.  Matching is lexical over constant string
    arguments; dynamically built names (f-strings) are out of scope.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import ClassVar

from repro import knobs
from repro.lint.core import Rule, Violation, register

__all__ = [
    "KnobsDeclaredRule",
    "NoBareEnvironRule",
    "NoDirectTimeRule",
    "PerfNamespaceRule",
    "ScalarSimRule",
    "StableSortRule",
]


def _called_name(call: ast.Call) -> str | None:
    """Trailing identifier of the called expression, if recognizable."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def _is_module_attr(node: ast.expr, module: str, attrs: frozenset[str]) -> bool:
    """``node`` is ``<module>.<attr>`` for one of ``attrs``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in attrs
        and isinstance(node.value, ast.Name)
        and node.value.id == module
    )


def _const_str_arg(call: ast.Call) -> str | None:
    """The call's first positional argument, when a string literal."""
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


@register
class ScalarSimRule(Rule):
    """I1: scalar reference simulators stay off hot paths."""

    name: ClassVar[str] = "I1"
    summary: ClassVar[str] = (
        "no calls to the scalar reference simulators outside "
        "cache/engines/tests/benchmarks"
    )
    allow_dirs: ClassVar[tuple[str, ...]] = ("benchmarks",)
    allowlist: ClassVar[frozenset[str]] = frozenset(
        {
            "src/repro/memsim/cache.py",
            "src/repro/memsim/engines.py",
        }
    )

    _NAMES = frozenset({"simulate_lru", "LRUCache"})

    def check(self, rel: Path, tree: ast.Module) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                if name in self._NAMES:
                    out.append(
                        self.violation(
                            rel, node.lineno,
                            f"call to scalar reference simulator {name}() "
                            f"outside the cache/engines/tests allowlist; "
                            f"use repro.memsim.engines instead",
                        )
                    )
        return out


@register
class StableSortRule(Rule):
    """I2: sorts in order-sensitive modules must be stable."""

    name: ClassVar[str] = "I2"
    summary: ClassVar[str] = (
        'np.argsort/np.sort in repro.memsim and repro.sanitize must pass '
        'kind="stable"'
    )
    dirs: ClassVar[tuple[str, ...]] = (
        "src/repro/memsim",
        "src/repro/sanitize",
    )

    _FUNCS = frozenset({"argsort", "sort"})
    _NUMPY = frozenset({"np", "numpy"})

    def _is_numpy_call(self, call: ast.Call) -> bool:
        fn = call.func
        return (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id in self._NUMPY
        )

    @staticmethod
    def _has_stable_kind(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "kind":
                return (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value == "stable"
                )
        return False

    def check(self, rel: Path, tree: ast.Module) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _called_name(node) in self._FUNCS
                and self._is_numpy_call(node)
                and not self._has_stable_kind(node)
            ):
                out.append(
                    self.violation(
                        rel, node.lineno,
                        f'np.{_called_name(node)} without kind="stable" in '
                        f"an order-sensitive module; equal keys must keep "
                        f"program order",
                    )
                )
        return out


@register
class NoDirectTimeRule(Rule):
    """I3: all wall-clock reads route through ``repro.clock``."""

    name: ClassVar[str] = "I3"
    summary: ClassVar[str] = (
        "no direct time.time/time.perf_counter outside repro.clock"
    )
    allow_dirs: ClassVar[tuple[str, ...]] = ("benchmarks",)
    allowlist: ClassVar[frozenset[str]] = frozenset(
        {"src/repro/clock.py"}
    )

    _FUNCS = frozenset({"time", "perf_counter", "monotonic", "process_time"})

    def check(self, rel: Path, tree: ast.Module) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if _is_module_attr(node, "time", self._FUNCS):
                assert isinstance(node, ast.Attribute)
                out.append(
                    self.violation(
                        rel, node.lineno,
                        f"direct time.{node.attr} reference; route through "
                        f"repro.clock (perf_counter / raw_perf_counter / "
                        f"wall_clock) so deterministic timing stays global",
                    )
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._FUNCS:
                        out.append(
                            self.violation(
                                rel, node.lineno,
                                f"from time import {alias.name}; route "
                                f"through repro.clock instead",
                            )
                        )
        return out


@register
class KnobsDeclaredRule(Rule):
    """I4: every mentioned ``REPRO_*`` name is declared in the registry."""

    name: ClassVar[str] = "I4"
    summary: ClassVar[str] = (
        "every REPRO_* env knob mentioned in source is declared in "
        "repro.knobs"
    )

    _KNOB = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")

    def check(self, rel: Path, tree: ast.Module) -> list[Violation]:
        declared = knobs.declared_names()
        out: list[Violation] = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            for found in sorted(set(self._KNOB.findall(node.value))):
                if found not in declared:
                    out.append(
                        self.violation(
                            rel, node.lineno,
                            f"undeclared knob {found}; declare it in "
                            f"repro.knobs (name, kind, default, doc)",
                        )
                    )
        return out


@register
class NoBareEnvironRule(Rule):
    """I5: ``os.environ`` reads happen only inside ``repro.knobs``."""

    name: ClassVar[str] = "I5"
    summary: ClassVar[str] = "no bare os.environ reads outside repro.knobs"
    allowlist: ClassVar[frozenset[str]] = frozenset(
        {"src/repro/knobs.py"}
    )

    _READ_METHODS = frozenset(
        {"get", "items", "keys", "values", "setdefault", "pop", "copy"}
    )

    @staticmethod
    def _is_environ(node: ast.expr) -> bool:
        return _is_module_attr(node, "os", frozenset({"environ"}))

    def check(self, rel: Path, tree: ast.Module) -> list[Violation]:
        out: list[Violation] = []

        def flag(line: int, what: str) -> None:
            out.append(
                self.violation(
                    rel, line,
                    f"bare os.environ {what}; read knobs through "
                    f"repro.knobs accessors (flag/integer/path/raw)",
                )
            )

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                if (
                    isinstance(fn, ast.Attribute)
                    and fn.attr in self._READ_METHODS
                    and self._is_environ(fn.value)
                ):
                    flag(node.lineno, f".{fn.attr}() read")
            elif isinstance(node, ast.Subscript):
                if self._is_environ(node.value) and isinstance(
                    node.ctx, ast.Load
                ):
                    flag(node.lineno, "subscript read")
            elif isinstance(node, ast.Compare):
                if any(
                    isinstance(op, (ast.In, ast.NotIn))
                    for op in node.ops
                ) and any(
                    self._is_environ(cmp) for cmp in node.comparators
                ):
                    flag(node.lineno, "membership test")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "os" and any(
                    alias.name == "environ" for alias in node.names
                ):
                    flag(node.lineno, "import (from os import environ)")
        return out


@register
class PerfNamespaceRule(Rule):
    """I6: perf budget keys and published metric names stay coherent."""

    name: ClassVar[str] = "I6"
    summary: ClassVar[str] = (
        "perf budget keys declared once and snake_case; registry metric "
        "names snake_case with exactly one instrument kind"
    )

    #: Registry helper -> instrument kind it binds the name to.
    _PUBLISHERS: ClassVar[dict[str, str]] = {
        "add": "counter",
        "gauge": "gauge",
        "observe": "histogram",
    }
    #: Receiver names the helpers are conventionally imported as.
    _RECEIVERS: ClassVar[frozenset[str]] = frozenset(
        {"obs", "metrics", "obs_metrics"}
    )
    _SEGMENT = re.compile(r"^[a-z][a-z0-9_]*$")

    def __init__(self) -> None:
        #: budget key -> "path:line" of its first declaration this run.
        self._budget_sites: dict[str, str] = {}
        #: metric name -> (kind, "path:line") of its first publish site.
        self._metric_kinds: dict[str, tuple[str, str]] = {}

    def begin(self) -> None:
        self._budget_sites.clear()
        self._metric_kinds.clear()

    def _bad_name(self, name: str, *, allow_glob: bool) -> bool:
        segments = name.split(".")
        return not all(
            self._SEGMENT.match(seg) or (allow_glob and seg == "*")
            for seg in segments
        )

    def check(self, rel: Path, tree: ast.Module) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            site = f"{rel.as_posix()}:{node.lineno}"
            if _called_name(node) == "declare_budget":
                key = _const_str_arg(node)
                if key is None:
                    continue
                if self._bad_name(key, allow_glob=True):
                    out.append(
                        self.violation(
                            rel, node.lineno,
                            f"perf budget key {key!r} is not dotted "
                            f"snake_case (segments [a-z][a-z0-9_]*, or '*' "
                            f"as a whole glob segment)",
                        )
                    )
                first = self._budget_sites.setdefault(key, site)
                if first != site:
                    out.append(
                        self.violation(
                            rel, node.lineno,
                            f"perf budget key {key!r} already declared at "
                            f"{first}; budget keys must be unique",
                        )
                    )
            elif (
                isinstance(fn, ast.Attribute)
                and fn.attr in self._PUBLISHERS
                and isinstance(fn.value, ast.Name)
                and fn.value.id in self._RECEIVERS
            ):
                name = _const_str_arg(node)
                if name is None:
                    continue  # dynamically built names are out of scope
                kind = self._PUBLISHERS[fn.attr]
                if self._bad_name(name, allow_glob=False):
                    out.append(
                        self.violation(
                            rel, node.lineno,
                            f"metric name {name!r} is not dotted snake_case "
                            f"(segments [a-z][a-z0-9_]*)",
                        )
                    )
                prev_kind, prev_site = self._metric_kinds.setdefault(
                    name, (kind, site)
                )
                if prev_kind != kind:
                    out.append(
                        self.violation(
                            rel, node.lineno,
                            f"metric {name!r} published as a {kind} here but "
                            f"as a {prev_kind} at {prev_site}; one name must "
                            f"map to one instrument kind",
                        )
                    )
        return out
