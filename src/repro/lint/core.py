"""Pluggable framework for the repo-specific AST lint.

The generic linters (ruff, mypy) cannot express this repo's *semantic*
invariants — "scalar reference simulators stay off hot paths", "sorts in
order-sensitive modules are stable", "all wall-clock reads route through
``repro.clock``".  This package holds those rules as small, importable,
unit-testable classes:

* :class:`Rule` — one invariant: a name (``I1`` ...), a directory scope,
  a per-rule allowlist, and an AST ``check``;
* :func:`register` / :func:`all_rules` — the rule registry
  (:mod:`repro.lint.rules` populates it at import);
* :func:`run_lint` — parse each tracked file once, run every selected
  rule over it, return a :class:`LintReport`;
* :func:`render_text` / :func:`report_to_json` — the two reporters
  behind ``python -m repro lint [--json]``.

Every rule lives in :mod:`repro.lint.rules`; adding one is subclassing
:class:`Rule` plus the ``@register`` decorator.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from collections.abc import Iterable
from pathlib import Path
from typing import ClassVar

from repro import obs

__all__ = [
    "LintReport",
    "Rule",
    "Violation",
    "all_rules",
    "register",
    "render_text",
    "repo_root",
    "report_to_json",
    "run_lint",
]

#: Top-level directories the lint walks (tests are exercised code, not
#: library code, and intentionally out of scope).
SCAN_DIRS: tuple[str, ...] = ("src", "scripts", "benchmarks")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative POSIX path
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _under(posix: str, dirs: Iterable[str]) -> bool:
    return any(posix == d or posix.startswith(d + "/") for d in dirs)


class Rule:
    """One repo invariant, checked per file against its parsed AST.

    Subclasses set the class attributes and implement :meth:`check`;
    scoping (``dirs`` minus ``allow_dirs`` minus ``allowlist``) is
    handled uniformly by :meth:`applies_to` so every rule reports its
    exemptions the same way.
    """

    #: Short stable identifier ("I1" ... "I5") used in messages and
    #: ``--select``.
    name: ClassVar[str] = ""
    #: One-line statement of the invariant (shown by ``repro lint``).
    summary: ClassVar[str] = ""
    #: Repo-relative directories the rule applies under.
    dirs: ClassVar[tuple[str, ...]] = SCAN_DIRS
    #: Repo-relative directories exempt wholesale.
    allow_dirs: ClassVar[tuple[str, ...]] = ()
    #: Repo-relative POSIX file paths exempt individually.
    allowlist: ClassVar[frozenset[str]] = frozenset()

    def applies_to(self, rel: Path) -> bool:
        """Whether the rule is in scope for one repo-relative path."""
        posix = rel.as_posix()
        if posix in self.allowlist or _under(posix, self.allow_dirs):
            return False
        return _under(posix, self.dirs)

    def begin(self) -> None:
        """Reset per-run state before a scan.

        :func:`run_lint` calls this once on every selected rule before
        touching any file.  Stateless rules (most) inherit the no-op;
        rules that accumulate *cross-file* state (uniqueness checks like
        I6) override it so registry-held rule instances do not leak one
        run's sightings into the next.
        """

    def check(self, rel: Path, tree: ast.Module) -> list[Violation]:
        """All violations of this rule in one parsed file."""
        raise NotImplementedError

    def violation(self, rel: Path, line: int, message: str) -> Violation:
        return Violation(self.name, rel.as_posix(), line, message)


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    rule = cls()
    if not rule.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if rule.name in _REGISTRY:
        raise ValueError(f"rule {rule.name} registered twice")
    _REGISTRY[rule.name] = rule
    return cls


def all_rules() -> dict[str, Rule]:
    """Every registered rule by name (importing the rules module)."""
    from repro.lint import rules as _rules  # noqa: F401  (registration)

    return dict(sorted(_REGISTRY.items()))


@dataclasses.dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    root: str
    rules: tuple[str, ...]
    files_scanned: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def repo_root() -> Path:
    """Repository root (three levels above ``src/repro/lint``)."""
    return Path(__file__).resolve().parents[3]


def iter_source_files(root: Path) -> list[Path]:
    """Repo-relative paths of every tracked ``.py`` file, sorted."""
    out: list[Path] = []
    for sub in SCAN_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        out.extend(p.relative_to(root) for p in sorted(base.rglob("*.py")))
    return out


def run_lint(
    root: Path | None = None, select: Iterable[str] | None = None
) -> LintReport:
    """Run the selected rules (default: all) over the repository."""
    root = repo_root() if root is None else root
    rules = all_rules()
    if select is not None:
        wanted = list(select)
        unknown = sorted(set(wanted) - set(rules))
        if unknown:
            raise ValueError(
                f"unknown rule(s) {unknown}; known: {sorted(rules)}"
            )
        rules = {name: rules[name] for name in rules if name in wanted}
    violations: list[Violation] = []
    files = iter_source_files(root)
    for rule in rules.values():
        rule.begin()
    with obs.span("lint.run", rules=",".join(rules), files=len(files)):
        for rel in files:
            try:
                tree = ast.parse((root / rel).read_text(), filename=str(rel))
            except SyntaxError as exc:
                violations.append(
                    Violation(
                        "I0", rel.as_posix(), exc.lineno or 0,
                        f"syntax error: {exc.msg}",
                    )
                )
                continue
            for rule in rules.values():
                if rule.applies_to(rel):
                    violations.extend(rule.check(rel, tree))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    obs.add("lint.runs")
    obs.observe("lint.files_scanned", len(files))
    obs.observe("lint.violations", len(violations))
    return LintReport(
        root=str(root),
        rules=tuple(rules),
        files_scanned=len(files),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per violation plus a verdict."""
    lines = [v.render() for v in report.violations]
    if report.violations:
        lines.append(f"{len(report.violations)} invariant violation(s)")
    else:
        lines.append(
            f"lint: OK ({report.files_scanned} files, "
            f"rules {', '.join(report.rules)})"
        )
    return "\n".join(lines)


def report_to_json(report: LintReport) -> str:
    """Machine-readable report (the CI artifact format)."""
    return json.dumps(
        {
            "root": report.root,
            "rules": list(report.rules),
            "files_scanned": report.files_scanned,
            "ok": report.ok,
            "violations": [dataclasses.asdict(v) for v in report.violations],
        },
        indent=2,
        sort_keys=True,
    )
