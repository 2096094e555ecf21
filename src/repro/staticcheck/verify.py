"""Static determinacy verification of the recursive multiply programs.

For one algorithm x layout pair the verifier unrolls the recursion
*symbolically* to depth ``d`` — descriptor views only, no buffers, no
flops — under a task-recording runtime, so every leaf multiply and
streamed addition yields an exact read/write footprint attached to its
SP-tree position.  Race-freedom of that unrolled program is then decided
by the same interval/footprint algebra as the dynamic sanitizer
(:func:`repro.sanitize.races.find_conflicts` over the English-Hebrew
oracle), at *element* granularity.

What turns one finite check into a proof over a shape class is the
paper's self-similarity: with recursive layouts, a subproblem's trace is
a translated, scaled copy of a template determined by its **expansion
signature** — (recursion spec, operand space-aliasing pattern,
accumulate flag, per-operand structural key).  The structural key is the
quadrant orientation for recursive-layout views (quadrant navigation
depends on nothing else) and the owns-its-storage bit for canonical
windows (relative sub-window geometry depends on nothing else).  Child
signatures are a deterministic function of the parent signature, so the
set of signatures any recursion depth can reach is the closure of the
root signature under one-level expansion — computed exactly, and
cheaply, by a breadth-first fixpoint over the signature graph
(:func:`_signature_closure`), with no events materialized.

Per-template race obligations are **compositional**: temporaries are
fresh buffer spaces, so two tasks in different children of an expansion
can only conflict through the shared operand spaces, where each child's
accesses are confined to (and cover) its operand sub-regions.  Hence
any cross-child element conflict is already visible in a *two-level*
expansion of the parent's template, and deeper conflicts are
within-child — the child template's obligation, inductively.  The
verifier therefore race-scans the depth-``d`` unroll (which instantiates
most templates in context and yields the dynamically cross-checkable
event stream) and, for every closure signature the unroll did not
instantiate as an internal node, a dedicated two-level representative
program.  Element-granularity overlap inside one space is invariant
under the uniform scaling that maps a template onto its instances (tile
size ``t`` scales offsets and extents together; canonical window
strides scale with the leading dimension), so a race-free, closed
signature set proves race-freedom for every ``n = t * 2**d'``,
``t >= 1``, ``d' >= 0``.

False sharing is deliberately **out of scope** for the proof: cache-line
overlap depends on the absolute byte geometry (line size vs. ``t``), so
it is not scale-invariant; the dynamic sanitizer remains the tool for
line-granularity findings at a concrete ``n``.

The default unroll depth (:data:`DEFAULT_DEPTH` = 4) sizes the
cross-checkable event stream; certification is decided by the signature
closure, not by the unroll reaching saturation, so the Gray/Hilbert
layouts (whose orientation sets take six-plus levels to appear in one
unroll) certify at the default depth.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro import obs
from repro.algorithms.dgemm import ALGORITHMS
from repro.algorithms.recursion import leaf_multiply
from repro.layouts.registry import RECURSIVE_LAYOUTS, get_recursive_layout
from repro.matrix.tile import Tiling, matmul_tiling_for_fixed_tile
from repro.memsim.machine import MachineModel, scaled
from repro.memsim.synthesis import (
    SPEC_BUILDERS,
    SpaceAlloc,
    SymDenseView,
    SymQuadView,
    UnsupportedSynthesis,
    expand_level,
)
from repro.memsim.trace import TraceEvent
from repro.runtime.cilk import CostModel, TraceRuntime
from repro.sanitize.oracle import SPOracle
from repro.sanitize.races import find_conflicts
from repro.sanitize.run import resolve_layout
from repro.staticcheck.context import StaticTraceContext, sym_root

__all__ = [
    "DEFAULT_DEPTH",
    "StaticCheckReport",
    "all_pairs",
    "static_trace",
    "staticcheck_all",
    "staticcheck_multiply",
]

#: Minimum unroll depth at which the self-similarity certification is
#: meaningful: one level to expand, one to confirm nothing new appears.
MIN_CERT_DEPTH = 2

#: Unroll depth when none is given (``repro staticcheck --depth``).
DEFAULT_DEPTH = 4

#: An expansion signature (hashable tuple; see module docstring).
Signature = tuple[Any, ...]


def _node_sig(view: Any) -> tuple[str, object]:
    """Structural key of one operand: everything its subtree's *relative*
    footprint geometry can depend on (curve and tile shape are fixed
    per run; offsets and scale are factored out by self-similarity)."""
    if isinstance(view, SymQuadView):
        return ("q", view.orientation)
    return ("d", bool(view.ld == view.rows))


def _signature(
    spec: tuple[Any, ...], c: Any, a: Any, b: Any, accumulate: bool
) -> Signature:
    """Expansion signature of one internal recursion node."""
    slot_of: dict[int, int] = {}
    pattern = []
    for v in (c, a, b):
        if v.space not in slot_of:
            slot_of[v.space] = len(slot_of)
        pattern.append(slot_of[v.space])
    return (
        spec, tuple(pattern), accumulate,
        _node_sig(c), _node_sig(a), _node_sig(b),
    )


class _SignatureLog:
    """Expansion signatures observed per recursion level (level = the
    expanded node's grid order ``d``; leaves are at 0)."""

    __slots__ = ("levels",)

    def __init__(self) -> None:
        self.levels: dict[int, set[Signature]] = {}

    def record(self, level: int, sig: Signature) -> None:
        self.levels.setdefault(level, set()).add(sig)

    def new_per_level(self) -> list[tuple[int, int]]:
        """(level, signatures first seen at that level), deepest last."""
        seen: set[Signature] = set()
        out: list[tuple[int, int]] = []
        for level in sorted(self.levels, reverse=True):
            fresh = self.levels[level] - seen
            out.append((level, len(fresh)))
            seen |= fresh
        return out

    def all_signatures(self) -> set[Signature]:
        """Every internal-node signature instantiated in the unroll."""
        out: set[Signature] = set()
        for sigs in self.levels.values():
            out |= sigs
        return out


def _static_descend(
    ctx: StaticTraceContext,
    spec: tuple[Any, ...],
    c: Any,
    a: Any,
    b: Any,
    accumulate: bool,
    log: _SignatureLog,
) -> None:
    """Full (non-memoized) symbolic descent, logging signatures."""
    if c.is_leaf:
        leaf_multiply(ctx, c, a, b, accumulate)
        return
    log.record(int(c.d), _signature(spec, c, a, b, accumulate))
    expand_level(
        ctx, spec, c, a, b, accumulate,
        lambda ctx_, spec_, c_, a_, b_, acc_: _static_descend(
            ctx_, spec_, c_, a_, b_, acc_, log
        ),
    )


# ---------------------------------------------------------------------------
# Signature-graph closure + per-template representative scans
# ---------------------------------------------------------------------------

#: Depth of representative programs: the shallowest unroll whose race
#: scan exposes every cross-child element conflict of one template (see
#: the compositionality argument in the module docstring).
_REP_DEPTH = 2

#: Ceiling on closure size; hitting it means the signature graph is not
#: converging (certification honestly fails rather than looping).
_CLOSURE_CAP = 4096


def _rep_operands(
    sig: Signature, curve: Any, alloc: SpaceAlloc
) -> tuple[list[Any], bool, tuple[Any, ...]]:
    """Representative operand views realizing one signature at
    ``_REP_DEPTH`` (unit tiles, spaces = aliasing-slot ids)."""
    spec, pattern, accumulate, *keys = sig
    views: list[Any] = []
    for slot, key in zip(pattern, keys):
        if key[0] == "q":
            views.append(
                SymQuadView(alloc, curve, 1, 1, int(slot), 0, _REP_DEPTH, key[1])
            )
        else:
            rows = 1 << _REP_DEPTH
            ld = rows if key[1] else 2 * rows  # non-owning: window of a root
            views.append(
                SymDenseView(alloc, 1, 1, int(slot), ld, 0, rows, rows)
            )
    return views, bool(accumulate), spec


def _signature_children(sig: Signature, curve: Any) -> set[Signature]:
    """One-level expansion of a signature: the child signatures it
    deterministically produces (events discarded)."""
    ctx = StaticTraceContext(
        TraceRuntime(CostModel(spawn=0.0)), SpaceAlloc(start=3)
    )
    views, accumulate, spec = _rep_operands(sig, curve, ctx.alloc)
    children: set[Signature] = set()

    def harvest(
        ctx_: StaticTraceContext, spec_: tuple[Any, ...], c_: Any, a_: Any, b_: Any,
        acc_: bool,
    ) -> None:
        children.add(_signature(spec_, c_, a_, b_, acc_))

    expand_level(ctx, spec, views[0], views[1], views[2], accumulate, harvest)
    return children


def _signature_closure(
    root_sig: Signature, curve: Any
) -> tuple[frozenset[Signature], bool]:
    """Reachable signature set and whether it closed under the cap."""
    seen: set[Signature] = {root_sig}
    frontier: list[Signature] = [root_sig]
    while frontier and len(seen) <= _CLOSURE_CAP:
        next_frontier: list[Signature] = []
        for sig in frontier:
            for child in _signature_children(sig, curve):
                if child not in seen:
                    seen.add(child)
                    next_frontier.append(child)
        frontier = next_frontier
    return frozenset(seen), not frontier


def _rep_scan(
    sig: Signature,
    curve: Any,
    machine: MachineModel,
    max_reports: int,
) -> Any:
    """Race-scan the two-level representative program of one template."""
    rt = TraceRuntime(CostModel(spawn=0.0))
    ctx = StaticTraceContext(rt, SpaceAlloc(start=3))
    views, accumulate, spec = _rep_operands(sig, curve, ctx.alloc)
    log = _SignatureLog()
    _static_descend(ctx, spec, views[0], views[1], views[2], accumulate, log)
    oracle = SPOracle(rt.root)
    return find_conflicts(ctx.events, oracle, machine, max_reports)


def _spec_for(algorithm: str, mode: str) -> tuple[Any, ...]:
    try:
        spec: tuple[Any, ...] = SPEC_BUILDERS[algorithm](mode)
    except KeyError:
        raise UnsupportedSynthesis(
            f"no recursion spec for algorithm {algorithm!r}; "
            f"known: {sorted(SPEC_BUILDERS)}"
        ) from None
    if spec[0] == "hybrid" and int(spec[2]) <= 0:
        spec = ("standard", "accumulate")
    return spec


@dataclasses.dataclass(frozen=True)
class StaticCheckReport:
    """Verdict of one static determinacy check."""

    algorithm: str
    layout: str
    mode: str
    depth: int
    n_events: int
    n_tasks: int
    #: Element-granularity conflicts (``repro.sanitize.races.Conflict``).
    races: tuple[Any, ...]
    n_race_pairs: int
    #: Whether the signature graph closed (every reachable expansion
    #: template enumerated and race-scanned), so the proof extends to
    #: all deeper recursions / larger n of the shape class.
    certified: bool
    #: (level, signatures first seen there) in the main unroll, deepest
    #: level last.
    new_signatures: tuple[tuple[int, int], ...]
    #: Size of the closed signature set (0 when not certified).
    n_signatures: int
    #: Templates scanned via dedicated two-level representative programs
    #: because the main unroll never instantiated them internally.
    n_rep_scans: int

    @property
    def race_free(self) -> bool:
        return not self.races

    @property
    def ok(self) -> bool:
        """Race-free *and* certified — a proof, not just a clean sample."""
        return self.race_free and self.certified

    @property
    def shape_class(self) -> str:
        """The family of sizes the verdict covers when certified."""
        return f"n = t*2^d for all t >= 1, d >= {self.depth}"

    def summary(self) -> str:
        status = "PROVED" if self.ok else ("RACY" if self.races else "UNCERTIFIED")
        return (
            f"{status}: {self.algorithm}/{self.layout} depth={self.depth}: "
            f"{self.n_events} events, {self.n_tasks} tasks, "
            f"{self.n_race_pairs} race pairs, "
            f"{self.n_signatures} templates "
            f"({self.n_rep_scans} rep-scanned), certified={self.certified}"
        )

    def proof(self) -> str:
        """Multi-line proof statement or counterexample report."""
        lines = [self.summary()]
        if self.ok:
            lines.append(
                f"  race-free for all n in shape class [{self.shape_class}]: "
                f"no two logically parallel tasks overlap at element "
                f"granularity, certified to depth {self.depth} by "
                f"self-similarity — the signature graph closed at "
                f"{self.n_signatures} expansion templates, every one "
                f"race-scanned (in the unroll or as a two-level "
                f"representative)"
            )
        if not self.certified:
            lines.append(
                "  NOT certified: the expansion-signature graph did not "
                "close under the cap; the unroll verdict covers only the "
                "checked depth"
            )
        for conflict in self.races:
            lines.append("  " + conflict.describe())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (Conflicts rendered as strings)."""
        return {
            "algorithm": self.algorithm,
            "layout": self.layout,
            "mode": self.mode,
            "depth": self.depth,
            "n_events": self.n_events,
            "n_tasks": self.n_tasks,
            "n_race_pairs": self.n_race_pairs,
            "races": [c.describe() for c in self.races],
            "certified": self.certified,
            "race_free": self.race_free,
            "ok": self.ok,
            "shape_class": self.shape_class if self.ok else None,
            "new_signatures": [list(t) for t in self.new_signatures],
            "n_signatures": self.n_signatures,
            "n_rep_scans": self.n_rep_scans,
        }


def staticcheck_multiply(
    algorithm: str,
    layout: str,
    depth: int | None = None,
    mode: str = "accumulate",
    machine: MachineModel | None = None,
    max_reports: int = 64,
) -> StaticCheckReport:
    """Statically verify one algorithm x layout pair at symbolic ``n``.

    Unrolls the recursion to ``depth`` over unit tiles (the proof is
    tile-size-invariant) and scans the resulting task-attributed
    footprints for element-granularity races; then computes the exact
    closure of the root's expansion-signature graph and race-scans a
    two-level representative program for every closure template the
    unroll did not instantiate internally.  A clean, closed result is a
    proof over the whole shape class (see the module docstring).
    """
    if algorithm not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
        )
    layout = resolve_layout(layout)
    if depth is None:
        depth = DEFAULT_DEPTH
    if depth < MIN_CERT_DEPTH:
        raise ValueError(
            f"depth must be >= {MIN_CERT_DEPTH} for certification, got {depth}"
        )
    spec = _spec_for(algorithm, mode)
    with obs.span(
        "staticcheck.verify", algorithm=algorithm, layout=layout, depth=depth
    ):
        rt = TraceRuntime(CostModel(spawn=0.0))
        ctx = StaticTraceContext(rt)
        c = sym_root(layout, ctx.alloc, depth)
        a = sym_root(layout, ctx.alloc, depth)
        b = sym_root(layout, ctx.alloc, depth)
        log = _SignatureLog()
        _static_descend(ctx, spec, c, a, b, True, log)
        oracle = SPOracle(rt.root)
        scan = find_conflicts(ctx.events, oracle, machine or scaled(), max_reports)
        races = list(scan.races)
        n_race_pairs = int(scan.n_race_pairs)
        curve = None if layout == "LC" else get_recursive_layout(layout)
        closure, closed = _signature_closure(_signature(spec, c, a, b, True), curve)
        rep_sigs = sorted(closure - log.all_signatures(), key=repr)
        for sig in rep_sigs:
            rep = _rep_scan(sig, curve, machine or scaled(), max_reports)
            races.extend(rep.races)
            n_race_pairs += int(rep.n_race_pairs)
        certified = closed
    obs.add("staticcheck.runs")
    obs.add("staticcheck.race_pairs", n_race_pairs)
    obs.add("staticcheck.certified" if certified else "staticcheck.uncertified")
    return StaticCheckReport(
        algorithm=algorithm,
        layout=layout,
        mode=mode,
        depth=depth,
        n_events=len(ctx.events),
        n_tasks=oracle.n_leaves,
        races=tuple(races),
        n_race_pairs=n_race_pairs,
        certified=certified,
        new_signatures=tuple(log.new_per_level()),
        n_signatures=len(closure) if closed else 0,
        n_rep_scans=len(rep_sigs),
    )


def all_pairs() -> list[tuple[str, str]]:
    """Every registered algorithm x layout pair the verifier covers."""
    layouts = tuple(RECURSIVE_LAYOUTS) + ("LC",)
    return [(alg, lay) for alg in sorted(ALGORITHMS) for lay in layouts]


def staticcheck_all(
    depth: int | None = None,
    mode: str = "accumulate",
    machine: MachineModel | None = None,
) -> list[StaticCheckReport]:
    """Run :func:`staticcheck_multiply` over the whole registry."""
    with obs.span("staticcheck.sweep", depth=depth):
        return [
            staticcheck_multiply(alg, lay, depth=depth, mode=mode, machine=machine)
            for alg, lay in all_pairs()
        ]


def reports_to_json(reports: list[StaticCheckReport]) -> str:
    """Machine-readable sweep report (the CI artifact format)."""
    return json.dumps(
        {
            "ok": all(r.ok for r in reports),
            "reports": [r.to_dict() for r in reports],
        },
        indent=2,
        sort_keys=True,
    )


def static_trace(
    algorithm: str,
    layout: str,
    n: int,
    tile: int = 16,
    mode: str = "accumulate",
    depth: int | None = None,
) -> tuple[list[TraceEvent], SPOracle]:
    """Symbolically derive the task-attributed trace of one concrete
    ``n x n`` multiply — the static twin of running
    :func:`repro.memsim.trace.run_traced_multiply` under a
    ``TraceContext(TraceRuntime())``.

    Same tiling policy and root geometry as the executed tracer (and as
    :func:`repro.memsim.synthesis.synthesize_multiply`), so after
    canonicalizing buffer-space ids by first appearance the event lists
    must agree region-for-region and the SP trees task-for-task; the
    property tests assert exactly that.
    """
    spec = _spec_for(algorithm, mode)
    layout = resolve_layout(layout)
    if depth is not None:
        t_leaf = -(-n // (1 << depth))
        t = Tiling(depth, t_leaf, t_leaf, n, n)
    else:
        tiling = matmul_tiling_for_fixed_tile(n, n, n, tile)
        t = Tiling(tiling.d, tiling.t_m, tiling.t_n, n, n)
    rt = TraceRuntime(CostModel(spawn=0.0))
    ctx = StaticTraceContext(rt)
    with obs.span("staticcheck.trace", algorithm=algorithm, layout=layout, n=n):
        operands = [
            sym_root(
                layout, ctx.alloc, t.d, t.t_r, t.t_c,
                rows=t.padded_m, cols=t.padded_n,
            )
            for _ in range(3)
        ]
        log = _SignatureLog()
        _static_descend(ctx, spec, operands[0], operands[1], operands[2], True, log)
    events: list[TraceEvent] = ctx.events
    return events, SPOracle(rt.root)
