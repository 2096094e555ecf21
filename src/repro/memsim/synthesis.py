"""Symbolic trace synthesis: address streams without executing the multiply.

The executed tracer (:mod:`repro.memsim.trace`) runs the full recursive
multiply — real buffers, numpy leaf kernels, streamed additions — just
to harvest the operand regions of every operation.  But the paper's
layouts are *self-similar* (Section 3): the address trace of quadrant
``(i, j)`` at depth ``d`` is the depth-``d`` template trace plus a
per-quadrant base offset.  This module exploits that in two stages:

1. **Symbolic descent** — the recursion runs over *region descriptors*
   (:class:`SymQuadView` / :class:`SymDenseView`): no buffer is
   allocated, no flop is spent.  The algorithms' own per-level spawn
   functions (``standard_level`` / ``strassen_level`` / ...) drive the
   descent through a descriptor-only :class:`~repro.algorithms.recursion.Context`
   (``executes = False``), so the event *sequence* is the executed
   path's by construction.

2. **Subtree-template memoization** — since quadrant offsets enter
   region starts linearly, one subtree's event table per (algorithm
   spec, operand depth/orientation, space-aliasing pattern, accumulate
   flag) suffices: siblings are synthesized by adding base offsets to
   the template's start column and renaming its temporary spaces.
   Gray-Morton's 2 and Hilbert's 4 orientations simply key the cache.
   The O(#leaves) Python recursion collapses to O(#distinct templates)
   recursion plus vectorized int64 column arithmetic.

Events live in a structure-of-arrays :class:`EventTable` (int64 columns
for space/start/rows/cols/stride) instead of a Python list of
``TraceEvent`` objects, and :func:`expand_table` lowers the table to the
line-granularity byte-address stream fully vectorized — replicating
:func:`repro.memsim.trace.expand_trace` *byte for byte*, including base
assignment in first-touch order (the property suite asserts this for
every algorithm x layout pair).

Synthesis is the only production trace source.  The executed tracer
stays as the oracle the tests, the sanitizer and the static checker
compare against; it is no fallback.  An algorithm without a spec raises
:class:`UnsupportedSynthesis`, which reaches the caller (the static
checker raises it too).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.algorithms.recursion import Context, leaf_multiply
from repro.algorithms.spacesaving import strassen_space_level
from repro.algorithms.standard import standard_level
from repro.algorithms.strassen import strassen_level
from repro.algorithms.winograd import winograd_level
from repro.layouts.base import RecursiveLayout
from repro.layouts.registry import get_recursive_layout
from repro.matrix.tile import Tiling, matmul_tiling_for_fixed_tile
from repro.memsim.machine import MachineModel
from repro.memsim.trace import Region, TraceEvent

__all__ = [
    "EventTable",
    "SPEC_BUILDERS",
    "SpaceAlloc",
    "SymQuadView",
    "SymDenseView",
    "SynthesisContext",
    "UnsupportedSynthesis",
    "expand_level",
    "expand_table",
    "synthesize_multiply",
]

#: ``EventTable.kind`` codes.
KIND_MUL = 0
KIND_ADD = 1

_KIND_NAMES = {KIND_MUL: "mul", KIND_ADD: "add"}
_KIND_CODES = {name: code for code, name in _KIND_NAMES.items()}


class UnsupportedSynthesis(KeyError):
    """The requested algorithm has no symbolic synthesis spec."""


# ---------------------------------------------------------------------------
# Structure-of-arrays event table
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EventTable:
    """Recorded operations as parallel int64 columns.

    Row ``i`` is one event; operand slot 0 is the written region, slots
    ``1..nread[i]`` the read regions (unused slots have ``space == -1``).
    Region fields follow :class:`repro.memsim.trace.Region`: ``cols``
    columns of ``rows`` contiguous elements, column ``k`` starting at
    ``start + k * stride`` (``cols == 1`` for flat regions).
    """

    kind: np.ndarray  # (n,) int8, KIND_MUL | KIND_ADD
    nread: np.ndarray  # (n,) int8
    space: np.ndarray  # (n, 1 + R) int64; slot 0 = write; -1 = unused
    start: np.ndarray  # (n, 1 + R) int64
    rows: np.ndarray  # (n, 1 + R) int64
    cols: np.ndarray  # (n, 1 + R) int64
    stride: np.ndarray  # (n, 1 + R) int64

    @property
    def n_events(self) -> int:
        """Number of recorded events."""
        return int(self.kind.shape[0])

    @property
    def max_reads(self) -> int:
        """Read-operand slots per row."""
        return int(self.space.shape[1]) - 1

    @classmethod
    def empty(cls, max_reads: int = 2) -> "EventTable":
        """A zero-event table with ``max_reads`` read slots."""
        w = 1 + max_reads
        return cls(
            kind=np.zeros(0, np.int8),
            nread=np.zeros(0, np.int8),
            space=np.zeros((0, w), np.int64),
            start=np.zeros((0, w), np.int64),
            rows=np.zeros((0, w), np.int64),
            cols=np.zeros((0, w), np.int64),
            stride=np.zeros((0, w), np.int64),
        )

    @classmethod
    def from_events(cls, events) -> "EventTable":
        """Convert a ``TraceEvent`` list to the array representation."""
        events = list(events)
        if not events:
            return cls.empty()
        max_reads = max((len(ev.reads) for ev in events), default=0)
        max_reads = max(max_reads, 1)
        n, w = len(events), 1 + max_reads
        kind = np.empty(n, np.int8)
        nread = np.empty(n, np.int8)
        space = np.full((n, w), -1, np.int64)
        start = np.zeros((n, w), np.int64)
        rows = np.ones((n, w), np.int64)
        cols = np.ones((n, w), np.int64)
        stride = np.zeros((n, w), np.int64)
        for i, ev in enumerate(events):
            kind[i] = _KIND_CODES[ev.kind]
            nread[i] = len(ev.reads)
            for slot, r in enumerate((ev.write, *ev.reads)):
                space[i, slot] = r.space
                start[i, slot] = r.start
                rows[i, slot] = r.rows
                cols[i, slot] = r.cols
                stride[i, slot] = r.col_stride
        return cls(kind, nread, space, start, rows, cols, stride)

    def to_events(self) -> list[TraceEvent]:
        """Materialize as ``TraceEvent`` objects (interop / debugging)."""
        out = []
        for i in range(self.n_events):
            regions = [
                Region(
                    int(self.space[i, s]),
                    int(self.start[i, s]),
                    int(self.rows[i, s]),
                    int(self.cols[i, s]),
                    int(self.stride[i, s]),
                )
                for s in range(1 + int(self.nread[i]))
            ]
            out.append(
                TraceEvent(
                    _KIND_NAMES[int(self.kind[i])], regions[0], tuple(regions[1:])
                )
            )
        return out

    @classmethod
    def concatenate(cls, tables) -> "EventTable":
        """Stack tables row-wise, widening read slots as needed."""
        tables = [t for t in tables if t.n_events]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        max_reads = max(t.max_reads for t in tables)
        cols = {}
        for name in ("space", "start", "rows", "cols", "stride"):
            parts = []
            for t in tables:
                arr = getattr(t, name)
                pad = max_reads - t.max_reads
                if pad:
                    fill = -1 if name == "space" else (1 if name in ("rows", "cols") else 0)
                    arr = np.pad(arr, ((0, 0), (0, pad)), constant_values=fill)
                parts.append(arr)
            cols[name] = np.concatenate(parts)
        return cls(
            kind=np.concatenate([t.kind for t in tables]),
            nread=np.concatenate([t.nread for t in tables]),
            **cols,
        )

    def _op_ends(self):
        """Flat (space, end) pairs of every valid operand slot."""
        valid = self.space >= 0
        sp = self.space[valid]
        st = self.start[valid]
        r = self.rows[valid]
        co = self.cols[valid]
        sd = self.stride[valid]
        end = st + np.where(co == 1, r, (co - 1) * sd + r)
        return sp, end

    def space_sizes(self) -> dict[int, int]:
        """Per-space touched element count (max region end), as the
        executed path computes it for virtual-address placement."""
        sp, end = self._op_ends()
        if not sp.size:
            return {}
        uniq, inv = np.unique(sp, return_inverse=True)
        max_end = np.zeros(uniq.size, np.int64)
        np.maximum.at(max_end, inv, end)
        return {int(s): int(e) for s, e in zip(uniq, max_end)}


# ---------------------------------------------------------------------------
# Symbolic (descriptor-only) matrix views
# ---------------------------------------------------------------------------


class SpaceAlloc:
    """Issues sequential buffer-space ids for one symbolic run."""

    __slots__ = ("next_id",)

    def __init__(self, start: int = 0):
        self.next_id = start

    def new(self) -> int:
        i = self.next_id
        self.next_id += 1
        return i

    def reserve(self, count: int) -> int:
        """Claim ``count`` consecutive ids, returning the first."""
        i = self.next_id
        self.next_id += count
        return i


class SymQuadView:
    """Descriptor-only mirror of :class:`repro.matrix.tiledmatrix.QuadView`.

    Carries exactly the geometry the recorded regions depend on: the
    curve FSM, tile shape, buffer-space id, tile offset, grid order and
    orientation.  Quadrant navigation is the same two FSM table lookups
    the real view performs.
    """

    __slots__ = ("alloc", "curve", "t_r", "t_c", "space", "tile_off", "d", "orientation")

    def __init__(self, alloc, curve, t_r, t_c, space, tile_off, d, orientation):
        self.alloc = alloc
        self.curve = curve
        self.t_r = t_r
        self.t_c = t_c
        self.space = space
        self.tile_off = tile_off
        self.d = d
        self.orientation = orientation

    @property
    def n_tiles(self) -> int:
        """Tiles covered by this view."""
        return 1 << (2 * self.d)

    @property
    def rows(self) -> int:
        """Padded rows covered."""
        return self.t_r << self.d

    @property
    def cols(self) -> int:
        """Padded cols covered."""
        return self.t_c << self.d

    @property
    def is_leaf(self) -> bool:
        """True when the view is a single tile."""
        return self.d == 0

    def quadrant(self, qi: int, qj: int) -> "SymQuadView":
        """Quadrant (row-half, col-half): two FSM table lookups."""
        quad_tiles = self.n_tiles >> 2
        rank = self.curve.quadrant_rank(self.orientation, qi, qj)
        child = self.curve.quadrant_orientation(self.orientation, qi, qj)
        return SymQuadView(
            self.alloc, self.curve, self.t_r, self.t_c, self.space,
            self.tile_off + rank * quad_tiles, self.d - 1, child,
        )

    def quadrants(self):
        """(q11, q12, q21, q22) in the paper's numbering."""
        return (
            self.quadrant(0, 0),
            self.quadrant(0, 1),
            self.quadrant(1, 0),
            self.quadrant(1, 1),
        )

    def alloc_like(self) -> "SymQuadView":
        """Fresh temporary space with this view's geometry, orientation 0."""
        return SymQuadView(
            self.alloc, self.curve, self.t_r, self.t_c, self.alloc.new(),
            0, self.d, 0,
        )

    def region(self) -> tuple:
        """(space, start, rows, cols, stride) as ``view_region`` records it."""
        tsize = self.t_r * self.t_c
        start = self.tile_off * tsize
        if self.d == 0:
            return (self.space, start, self.t_r, self.t_c, self.t_r)
        return (self.space, start, self.n_tiles * tsize, 1, 0)


class SymDenseView:
    """Descriptor-only mirror of :class:`repro.matrix.tiledmatrix.DenseView`
    over column-major storage (the traced ``L_C`` baseline): a strided
    window of ``rows x cols`` at element offset ``off`` with leading
    dimension ``ld``."""

    __slots__ = ("alloc", "t_r", "t_c", "space", "ld", "off", "rows", "cols")

    orientation = 0

    def __init__(self, alloc, t_r, t_c, space, ld, off, rows, cols):
        self.alloc = alloc
        self.t_r = t_r
        self.t_c = t_c
        self.space = space
        self.ld = ld
        self.off = off
        self.rows = rows
        self.cols = cols

    @property
    def d(self) -> int:
        """Tile-grid order of this view."""
        side = self.rows // self.t_r
        return side.bit_length() - 1

    @property
    def is_leaf(self) -> bool:
        """True when the view is a single tile."""
        return self.rows == self.t_r and self.cols == self.t_c

    def quadrant(self, qi: int, qj: int) -> "SymDenseView":
        """Quadrant as a strided sub-window (no data, just arithmetic)."""
        hr, hc = self.rows // 2, self.cols // 2
        return SymDenseView(
            self.alloc, self.t_r, self.t_c, self.space, self.ld,
            self.off + qi * hr + qj * hc * self.ld, hr, hc,
        )

    def quadrants(self):
        """(q11, q12, q21, q22) in the paper's numbering."""
        return (
            self.quadrant(0, 0),
            self.quadrant(0, 1),
            self.quadrant(1, 0),
            self.quadrant(1, 1),
        )

    def alloc_like(self) -> "SymDenseView":
        """Fresh column-major temporary of this view's shape (own ld)."""
        return SymDenseView(
            self.alloc, self.t_r, self.t_c, self.alloc.new(),
            self.rows, 0, self.rows, self.cols,
        )

    def region(self) -> tuple:
        """(space, start, rows, cols, stride) as ``_dense_region`` records
        it — the numpy element stride along columns of an F-order window
        is always its root's leading dimension, which ``ld`` tracks
        (fresh temporaries own their storage, so ``ld == rows``)."""
        return (self.space, self.off, self.rows, self.cols, self.ld)


# ---------------------------------------------------------------------------
# Recording context + subtree templates
# ---------------------------------------------------------------------------


def _sym_noop_kernel(c, a, b, accumulate=True) -> None:
    """Never called: the context is descriptor-only (``executes=False``)."""


@dataclasses.dataclass
class _Template:
    """One memoized subtree event table, in slot-relative coordinates.

    ``table.space`` values ``0..n_slots-1`` are the operand slots (bound
    at instantiation), values ``>= n_slots`` are subtree-local
    temporaries (renamed to fresh global ids, order preserved — base
    assignment downstream is by first touch in the event stream, so the
    renaming only needs to preserve distinctness).
    """

    table: EventTable
    n_slots: int
    n_local: int


class SynthesisContext(Context):
    """Descriptor-only recording context with template memoization.

    The algorithms' level functions run unchanged against this context;
    ``record_leaf`` / ``record_stream`` append rows, and the descent
    driver (:func:`_descend`) replaces whole recognized subtrees with
    vectorized template instantiations.
    """

    executes = False

    __slots__ = ("templates", "alloc", "_segments", "_rows")

    def __init__(self, templates: dict | None = None, alloc: SpaceAlloc | None = None):
        super().__init__(None, kernel=_sym_noop_kernel)
        self.templates = {} if templates is None else templates
        self.alloc = alloc or SpaceAlloc()
        self._segments: list[EventTable] = []
        self._rows: list[tuple] = []

    # -- recording hooks ----------------------------------------------

    def record_leaf(self, c, a, b) -> None:
        self._rows.append((KIND_MUL, (c.region(), a.region(), b.region())))

    def record_stream(self, out, *operands) -> None:
        self._rows.append((KIND_ADD, (out.region(), *(o.region() for o in operands))))

    # -- assembly ------------------------------------------------------

    def _flush(self) -> None:
        if not self._rows:
            return
        rows, self._rows = self._rows, []
        n, w = len(rows), 3  # algorithm streams read at most 2 operands
        kind = np.empty(n, np.int8)
        nread = np.empty(n, np.int8)
        space = np.full((n, w), -1, np.int64)
        start = np.zeros((n, w), np.int64)
        rrows = np.ones((n, w), np.int64)
        rcols = np.ones((n, w), np.int64)
        stride = np.zeros((n, w), np.int64)
        for i, (k, regions) in enumerate(rows):
            kind[i] = k
            nread[i] = len(regions) - 1
            for slot, (sp, st, r, co, sd) in enumerate(regions):
                space[i, slot] = sp
                start[i, slot] = st
                rrows[i, slot] = r
                rcols[i, slot] = co
                stride[i, slot] = sd
        self._segments.append(EventTable(kind, nread, space, start, rrows, rcols, stride))

    def emit_template(self, tpl: _Template, slot_spaces, slot_bases) -> None:
        """Append one template instantiation: shift operand-slot starts
        by the per-slot base offsets, rename local temporaries."""
        self._flush()
        t = tpl.table
        space = t.space
        new_space = space.copy()
        new_start = t.start.copy()
        slot_mask = (space >= 0) & (space < tpl.n_slots)
        idx = space[slot_mask]
        new_space[slot_mask] = np.asarray(slot_spaces, np.int64)[idx]
        new_start[slot_mask] += np.asarray(slot_bases, np.int64)[idx]
        if tpl.n_local:
            local_mask = space >= tpl.n_slots
            base_local = self.alloc.reserve(tpl.n_local)
            new_space[local_mask] = space[local_mask] - tpl.n_slots + base_local
        self._segments.append(
            EventTable(t.kind, t.nread, new_space, new_start, t.rows, t.cols, t.stride)
        )

    def build(self) -> EventTable:
        """Concatenate everything recorded so far into one table."""
        self._flush()
        return EventTable.concatenate(self._segments)


# ---------------------------------------------------------------------------
# Memoized symbolic descent
# ---------------------------------------------------------------------------


def _node_key(v) -> tuple:
    """Cache-key part of one operand: everything its relative-offset
    subtree trace can depend on (curve and tile shape are fixed per run)."""
    if isinstance(v, SymQuadView):
        return ("q", v.d, v.orientation)
    return ("d", v.rows, v.cols, v.ld)


def _base_of(v) -> int:
    """Element offset of a view's origin within its buffer space."""
    if isinstance(v, SymQuadView):
        return v.tile_off * v.t_r * v.t_c
    return v.off


def _rebased(v, slot: int, alloc: SpaceAlloc):
    """Slot-relative clone of a view: space -> slot id, origin -> 0."""
    if isinstance(v, SymQuadView):
        return SymQuadView(
            alloc, v.curve, v.t_r, v.t_c, slot, 0, v.d, v.orientation
        )
    return SymDenseView(alloc, v.t_r, v.t_c, slot, v.ld, 0, v.rows, v.cols)


def expand_level(ctx: Context, spec: tuple, c, a, b, accumulate: bool, descend) -> None:
    """Emit one recursion level of ``spec`` against symbolic operands.

    ``descend(ctx, spec, c, a, b, accumulate)`` is called for each child
    product: synthesis passes its memoizing :func:`_descend`, while the
    static verifier (:mod:`repro.staticcheck`) passes a plain recursive
    driver so every task is materialized in the SP tree.
    """
    name = spec[0]
    if name == "standard":
        mode = spec[1]
        standard_level(
            ctx, c, a, b, accumulate, mode,
            lambda ctx_, cq, aq, bq, acc: descend(ctx_, spec, cq, aq, bq, acc),
        )
    elif name == "strassen":
        strassen_level(
            ctx, c, a, b, accumulate,
            lambda ctx_, p, x, y, acc: descend(ctx_, spec, p, x, y, acc),
        )
    elif name == "winograd":
        winograd_level(
            ctx, c, a, b, accumulate,
            lambda ctx_, p, x, y, acc: descend(ctx_, spec, p, x, y, acc),
        )
    elif name == "strassen_space":
        strassen_space_level(
            ctx, c, a, b,
            lambda ctx_, p, x, y: descend(ctx_, spec, p, x, y, True),
        )
    elif name == "hybrid":
        fast, remaining = spec[1], spec[2]
        # One fewer fast level below; at zero the subtree is exactly the
        # standard recursion, so key it as such (shares templates).
        child = ("hybrid", fast, remaining - 1) if remaining > 1 else (
            "standard", "accumulate"
        )
        level = strassen_level if fast == "strassen" else winograd_level
        level(
            ctx, c, a, b, accumulate,
            lambda ctx_, p, x, y, acc: descend(ctx_, child, p, x, y, acc),
        )
    else:  # pragma: no cover - _spec_for rejects unknown names first
        raise UnsupportedSynthesis(name)


def _descend(ctx: SynthesisContext, spec: tuple, c, a, b, accumulate: bool) -> None:
    """Recursion step: leaf, template cache hit, or template build."""
    if c.is_leaf:
        leaf_multiply(ctx, c, a, b, accumulate)
        return
    operands = (c, a, b)
    slot_of: dict[int, int] = {}
    pattern = []
    for v in operands:
        if v.space not in slot_of:
            slot_of[v.space] = len(slot_of)
        pattern.append(slot_of[v.space])
    key = (
        spec, tuple(pattern), accumulate,
        _node_key(c), _node_key(a), _node_key(b),
    )
    tpl = ctx.templates.get(key)
    if tpl is None:
        n_slots = len(slot_of)
        sub = SynthesisContext(ctx.templates, SpaceAlloc(n_slots))
        rebased = [_rebased(v, slot_of[v.space], sub.alloc) for v in operands]
        expand_level(sub, spec, rebased[0], rebased[1], rebased[2], accumulate, _descend)
        tpl = _Template(sub.build(), n_slots, sub.alloc.next_id - n_slots)
        ctx.templates[key] = tpl
        obs.add("memsim.synthesis.template_builds")
    else:
        obs.add("memsim.synthesis.template_hits")
    slot_spaces = [0] * len(slot_of)
    slot_bases = [0] * len(slot_of)
    for v in operands:
        s = slot_of[v.space]
        slot_spaces[s] = v.space
        slot_bases[s] = _base_of(v)
    ctx.emit_template(tpl, slot_spaces, slot_bases)


SPEC_BUILDERS = {
    # Keep in sync with repro.algorithms.dgemm.ALGORITHMS and the
    # kwargs run_traced_multiply passes (mode for standard only; hybrid
    # runs with its registry defaults fast="strassen", fast_levels=1).
    "standard": lambda mode: ("standard", mode),
    "strassen": lambda mode: ("strassen",),
    "winograd": lambda mode: ("winograd",),
    "hybrid": lambda mode: ("hybrid", "strassen", 1),
    "strassen_space": lambda mode: ("strassen_space",),
}


def synthesize_multiply(
    algorithm: str,
    layout: str,
    n: int,
    tile: int,
    mode: str = "accumulate",
    depth: int | None = None,
) -> tuple[EventTable, dict[int, int]]:
    """Synthesize the event table of one ``n x n`` multiply symbolically.

    Drop-in array-representation twin of
    :func:`repro.memsim.trace.trace_multiply`: same tiling policy, same
    event sequence, byte-identical expanded address stream — without
    executing the multiply.  Raises :class:`UnsupportedSynthesis` for
    algorithms without a spec; nothing falls back to the executed path.
    """
    try:
        spec = SPEC_BUILDERS[algorithm](mode)
    except KeyError:
        raise UnsupportedSynthesis(
            f"no synthesis spec for algorithm {algorithm!r}; "
            f"known: {sorted(SPEC_BUILDERS)}"
        ) from None
    if spec[0] == "hybrid" and spec[2] <= 0:
        spec = ("standard", "accumulate")
    if depth is not None:
        t_leaf = -(-n // (1 << depth))
        t = Tiling(depth, t_leaf, t_leaf, n, n)
    else:
        tiling = matmul_tiling_for_fixed_tile(n, n, n, tile)
        t = Tiling(tiling.d, tiling.t_m, tiling.t_n, n, n)

    ctx = SynthesisContext()
    if layout.upper() == "LC":
        ld = t.padded_m

        def root():
            return SymDenseView(
                ctx.alloc, t.t_r, t.t_c, ctx.alloc.new(), ld, 0,
                t.padded_m, t.padded_n,
            )
    else:
        curve = get_recursive_layout(layout)
        if not isinstance(curve, RecursiveLayout):  # pragma: no cover - registry guard
            raise TypeError(f"layout {layout!r} is not recursive")

        def root():
            return SymQuadView(
                ctx.alloc, curve, t.t_r, t.t_c, ctx.alloc.new(), 0, t.d, 0
            )

    with obs.span("synthesis.trace", algorithm=algorithm, layout=layout, n=n,
                  tile=tile, depth=depth):
        c, a, b = root(), root(), root()
        _descend(ctx, spec, c, a, b, True)
        table = ctx.build()
        sizes = table.space_sizes()
    obs.add("memsim.synthesis.events", table.n_events)
    return table, sizes


# ---------------------------------------------------------------------------
# Vectorized expansion of an EventTable
# ---------------------------------------------------------------------------


def _ranged(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated (ragged arange)."""
    counts = np.asarray(counts, np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _run_ranks(labels: np.ndarray) -> np.ndarray:
    """Index of each element within its run of equal consecutive labels."""
    n = labels.size
    if n == 0:
        return np.zeros(0, np.int64)
    idx = np.arange(n, dtype=np.int64)
    newrun = np.empty(n, bool)
    newrun[0] = True
    newrun[1:] = labels[1:] != labels[:-1]
    run_id = np.cumsum(newrun) - 1
    return idx - idx[newrun][run_id]


def _assign_bases(table: EventTable, machine: MachineModel, sizes: dict):
    """Page-aligned virtual bases in first-touch order (reads before
    write per event), exactly as ``AddressSpace`` assigns them."""
    w = table.space.shape[1]
    touch_cols = np.concatenate([np.arange(1, w), [0]])
    flat = table.space[:, touch_cols].ravel()
    flat = flat[flat >= 0]
    uniq, first_idx = np.unique(flat, return_index=True)
    order = np.argsort(first_idx, kind="stable")
    page = machine.page
    nxt = page  # keep address 0 unused
    base_by_uniq = np.zeros(uniq.size, np.int64)
    for pos in order:
        size = max(sizes.get(int(uniq[pos]), 0) * machine.itemsize, page)
        base_by_uniq[pos] = nxt
        nxt += (-(-size // page) + 1) * page
    return uniq, base_by_uniq


#: Minimum addresses per slice of :func:`expand_table`'s output fill.
#: Slices end on piece boundaries, so the ragged-arange temporaries hold
#: about this many addresses (8 MB of int64) plus one piece, however
#: long the trace.
EXPAND_SLICE = 1 << 20


def expand_table(
    table: EventTable,
    machine: MachineModel,
    space_sizes: dict[int, int] | None = None,
) -> np.ndarray:
    """Vectorized twin of :func:`repro.memsim.trace.expand_trace`.

    Returns the identical int64 address stream, computed from the array
    representation with no per-event Python loop: every event is
    decomposed into column *pieces* (contiguous line runs), piece bounds
    and address counts are computed in bulk, and the preallocated output
    is filled by one ragged-arange per :data:`EXPAND_SLICE` addresses.
    """
    n_events = table.n_events
    if n_events == 0:
        return np.zeros(0, dtype=np.int64)
    sizes = space_sizes or {}
    uniq, base_by_uniq = _assign_bases(table, machine, sizes)
    item = machine.itemsize
    line = machine.l1.line
    kind = table.kind
    nread = table.nread.astype(np.int64)
    space, start = table.space, table.start
    rows, cols, stride = table.rows, table.cols, table.stride

    is_mul = (kind == KIND_MUL) & (nread == 2)
    jobs_per_event = np.zeros(n_events, np.int64)

    # -- generic events: reads then write, one piece per region column --
    g = np.nonzero(~is_mul)[0]
    if g.size:
        g_nops = nread[g] + 1
        op_event = np.repeat(g, g_nops)
        op_t = _ranged(g_nops)
        opcol = np.where(op_t < nread[op_event], op_t + 1, 0)
        o_space = space[op_event, opcol]
        o_start = start[op_event, opcol]
        o_rows = rows[op_event, opcol]
        o_cols = cols[op_event, opcol]
        o_stride = stride[op_event, opcol]
        job_op = np.repeat(np.arange(op_event.size, dtype=np.int64), o_cols)
        k = _ranged(o_cols)
        g_job_space = o_space[job_op]
        g_job_off = o_start[job_op] + k * o_stride[job_op]
        g_job_rows = o_rows[job_op]
        g_job_event = op_event[job_op]
        np.add.at(jobs_per_event, op_event, o_cols)
    else:
        g_job_space = g_job_off = g_job_rows = g_job_event = np.zeros(0, np.int64)

    # -- mul events: per C column j, the whole A tile + B col + C col --
    m_idx = np.nonzero(is_mul)[0]
    if m_idx.size:
        c_sp, a_sp, b_sp = space[m_idx, 0], space[m_idx, 1], space[m_idx, 2]
        c_st, a_st, b_st = start[m_idx, 0], start[m_idx, 1], start[m_idx, 2]
        c_ro, a_ro, b_ro = rows[m_idx, 0], rows[m_idx, 1], rows[m_idx, 2]
        c_co, a_co, b_co = cols[m_idx, 0], cols[m_idx, 1], cols[m_idx, 2]
        c_sd, a_sd, b_sd = stride[m_idx, 0], stride[m_idx, 1], stride[m_idx, 2]
        m = np.maximum(c_co, 1)
        grp_ev = np.repeat(np.arange(m_idx.size, dtype=np.int64), m)
        j = _ranged(m)
        grp_jobs = a_co[grp_ev] + 2
        job_grp = np.repeat(np.arange(grp_ev.size, dtype=np.int64), grp_jobs)
        tt = _ranged(grp_jobs)
        ev_l = grp_ev[job_grp]
        jj = j[job_grp]
        acols = a_co[ev_l]
        is_a = tt < acols
        is_b = tt == acols
        b_col = np.minimum(jj, np.maximum(b_co[ev_l] - 1, 0))
        m_job_off = np.where(
            is_a, a_st[ev_l] + tt * a_sd[ev_l],
            np.where(is_b, b_st[ev_l] + b_col * b_sd[ev_l],
                     c_st[ev_l] + jj * c_sd[ev_l]),
        )
        m_job_space = np.where(
            is_a, a_sp[ev_l], np.where(is_b, b_sp[ev_l], c_sp[ev_l])
        )
        m_job_rows = np.where(
            is_a, a_ro[ev_l], np.where(is_b, b_ro[ev_l], c_ro[ev_l])
        )
        m_job_event = m_idx[ev_l]
        jobs_per_event[m_idx] = m * (a_co + 2)
    else:
        m_job_space = m_job_off = m_job_rows = m_job_event = np.zeros(0, np.int64)

    # -- merge into global event order ---------------------------------
    job_start = np.cumsum(jobs_per_event) - jobs_per_event
    total_jobs = int(jobs_per_event.sum())
    job_space = np.empty(total_jobs, np.int64)
    job_off = np.empty(total_jobs, np.int64)
    job_rows = np.empty(total_jobs, np.int64)
    if g_job_event.size:
        tgt = job_start[g_job_event] + _run_ranks(g_job_event)
        job_space[tgt] = g_job_space
        job_off[tgt] = g_job_off
        job_rows[tgt] = g_job_rows
    if m_job_event.size:
        tgt = job_start[m_job_event] + _run_ranks(m_job_event)
        job_space[tgt] = m_job_space
        job_off[tgt] = m_job_off
        job_rows[tgt] = m_job_rows

    # -- line-aligned piece bounds and counts --------------------------
    base = base_by_uniq[np.searchsorted(uniq, job_space)]
    lo = base + job_off * item
    hi = lo + job_rows * item - 1
    alo = lo - lo % line
    piece_counts = (hi - hi % line - alo) // line + 1

    # -- fill the output, one slice of whole pieces at a time ----------
    bound = np.zeros(piece_counts.size + 1, np.int64)
    np.cumsum(piece_counts, out=bound[1:])
    out = np.empty(int(bound[-1]), np.int64)
    j0 = 0
    while j0 < piece_counts.size:
        j1 = int(np.searchsorted(bound, bound[j0] + EXPAND_SLICE, "left"))
        j1 = min(max(j1, j0 + 1), piece_counts.size)
        counts = piece_counts[j0:j1]
        out[bound[j0]:bound[j1]] = (
            np.repeat(alo[j0:j1], counts) + line * _ranged(counts)
        )
        j0 = j1
    return out
