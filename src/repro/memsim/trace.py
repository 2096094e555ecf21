"""Address-trace generation from real algorithm executions.

The algorithms in :mod:`repro.algorithms` call the ``record_leaf`` /
``record_stream`` hooks on their :class:`~repro.algorithms.recursion.Context`
at every leaf multiply and streamed addition.  :class:`TraceContext`
implements those hooks, capturing each operation's operand *regions*
(buffer identity + offset + shape + stride).  :func:`expand_trace` then
lowers the event list to a cache-line-granularity byte-address stream in
a virtual address space where every buffer gets its own page-aligned
base — exactly the memory image a real run would have.

Granularity model (documented simplification): a leaf multiply streams
each operand region once (tiles are sized to fit L1, so intra-leaf reuse
hits by construction); a streamed addition touches each operand once.
Inter-operation interference — the effect the paper's experiments hinge
on — is modelled exactly.

Production traces come from the symbolic synthesizer
(:mod:`repro.memsim.synthesis`), which reproduces this module's output
byte for byte without executing the multiply.  The executed path here
is the oracle it is tested against; it also feeds the determinacy-race
sanitizer and the static checker's cross-checks, which need real
buffers and SP-tree tasks, and backs the trace store's fallback for
algorithms the synthesizer has no spec for.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms.dgemm import ALGORITHMS
from repro.algorithms.recursion import Context
from repro.matrix.tile import Tiling, matmul_tiling_for_fixed_tile
from repro.matrix.tiledmatrix import DenseMatrix, DenseView, QuadView, TiledMatrix
from repro.memsim.machine import MachineModel

__all__ = [
    "Region",
    "TraceEvent",
    "TraceContext",
    "expand_trace",
    "run_traced_multiply",
    "trace_multiply",
    "view_buffer",
    "view_region",
]

@dataclasses.dataclass(frozen=True)
class Region:
    """A (possibly strided) operand region, in elements within a buffer.

    ``cols`` columns of ``rows`` contiguous elements each, column k
    starting at ``start + k * col_stride``.  Contiguous regions have
    ``cols == 1``.

    Invariants are validated at construction: silently expanding a
    malformed region would generate garbage addresses that poison every
    downstream consumer (cache simulation, false-sharing analysis, race
    detection).
    """

    space: int  # buffer identity
    start: int
    rows: int
    cols: int = 1
    col_stride: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError(f"Region rows must be >= 1, got {self.rows}")
        if self.cols < 1:
            raise ValueError(f"Region cols must be >= 1, got {self.cols}")
        if self.start < 0:
            raise ValueError(f"Region start must be >= 0, got {self.start}")
        if self.cols > 1 and self.col_stride < self.rows:
            raise ValueError(
                f"Region col_stride {self.col_stride} < rows {self.rows} "
                f"with cols {self.cols}: columns would alias"
            )

    @property
    def n_elements(self) -> int:
        """Total elements covered."""
        return self.rows * self.cols

    @property
    def end(self) -> int:
        """One past the last element index covered (allocation bound)."""
        if self.cols == 1:
            return self.start + self.rows
        return self.start + (self.cols - 1) * self.col_stride + self.rows


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded operation: kind, written region, read regions.

    ``task`` is the SP-tree leaf (:class:`repro.runtime.task.SPNode`)
    the operation executed in, when the recording context's runtime
    builds one (``TraceContext(TraceRuntime())``); ``None`` under the
    serial runtime.  The determinacy-race sanitizer joins events to the
    task DAG through this field.
    """

    kind: str  # "mul" | "add"
    write: Region
    reads: tuple[Region, ...]
    task: object = None


def _dense_region(view: DenseView) -> Region:
    """Region of a strided canonical view relative to its root array."""
    arr = view.array
    base = arr
    while base.base is not None:
        base = base.base
    itemsize = arr.itemsize
    offset = (arr.__array_interface__["data"][0] - base.__array_interface__["data"][0]) // itemsize
    strides = (arr.strides[0] // itemsize, arr.strides[1] // itemsize)
    if strides[0] == 1:  # column-major storage: columns are contiguous
        return Region(id(base), int(offset), arr.shape[0], arr.shape[1], strides[1])
    if strides[1] == 1:  # row-major storage: rows are contiguous
        return Region(id(base), int(offset), arr.shape[1], arr.shape[0], strides[0])
    raise ValueError(f"unsupported strides {arr.strides} for tracing")


def view_region(view) -> Region:
    """Operand region of any matrix view.

    Leaf tiles keep their 2-D shape (contiguous column-major:
    ``col_stride == t_r``) so multiply expansion can replay the kernel's
    per-column reuse; larger regions are recorded as flat streams.
    """
    if isinstance(view, QuadView):
        tsize = view.matrix.layout.tile_size
        start = view.tile_off * tsize
        if view.is_leaf:
            return Region(id(view.matrix.buf), start, view.t_r, view.t_c, view.t_r)
        return Region(id(view.matrix.buf), start, view.n_tiles * tsize)
    if isinstance(view, DenseView):
        return _dense_region(view)
    raise TypeError(f"cannot trace view of type {type(view).__name__}")


def view_buffer(view) -> np.ndarray:
    """Backing root buffer of any matrix view (the object whose id is
    the region's ``space``)."""
    if isinstance(view, QuadView):
        return view.matrix.buf
    if isinstance(view, DenseView):
        arr = view.array
        while arr.base is not None:
            arr = arr.base
        return arr
    raise TypeError(f"cannot trace view of type {type(view).__name__}")


def _noop_kernel(c, a, b, accumulate=True) -> None:
    """Leaf kernel that skips the arithmetic (tracing only)."""


class TraceContext(Context):
    """Context that records operations instead of spending flops on them.

    Every operand's backing buffer is *pinned* for the context's
    lifetime: regions identify buffers by ``id()``, so letting a
    temporary be garbage-collected mid-trace would allow a later
    allocation to reuse its id and silently alias two distinct buffers
    into one address space.  ``space_allocs`` exposes the true
    allocation size of every pinned buffer, which the bounds sanitizer
    checks expanded regions against.

    Pass a :class:`~repro.runtime.cilk.TraceRuntime` as ``rt`` to stamp
    each event with the SP-tree leaf it executed in (``TraceEvent.task``)
    — required by the determinacy-race sanitizer.
    """

    __slots__ = ("events", "_pins")

    def __init__(self, rt=None):
        super().__init__(rt, kernel=_noop_kernel)
        self.events: list[TraceEvent] = []
        self._pins: dict[int, np.ndarray] = {}

    def _pin(self, view) -> None:
        buf = view_buffer(view)
        self._pins.setdefault(id(buf), buf)

    @property
    def space_allocs(self) -> dict[int, int]:
        """Allocated element count of every buffer seen so far."""
        return {space: buf.size for space, buf in self._pins.items()}

    def record_leaf(self, c, a, b) -> None:
        for v in (c, a, b):
            self._pin(v)
        self.events.append(
            TraceEvent(
                "mul",
                view_region(c),
                (view_region(a), view_region(b)),
                task=self.rt.current_task(),
            )
        )

    def record_stream(self, out, *operands) -> None:
        self._pin(out)
        for o in operands:
            self._pin(o)
        self.events.append(
            TraceEvent(
                "add",
                view_region(out),
                tuple(view_region(o) for o in operands),
                task=self.rt.current_task(),
            )
        )


class AddressSpace:
    """Assigns page-aligned virtual base addresses to buffers."""

    def __init__(self, machine: MachineModel):
        self.machine = machine
        self._bases: dict[int, int] = {}
        self._next = machine.page  # keep address 0 unused

    def base(self, space: int, n_bytes_hint: int = 0) -> int:
        """Base byte address for a buffer, allocating on first use."""
        if space not in self._bases:
            self._bases[space] = self._next
            size = max(n_bytes_hint, self.machine.page)
            pages = -(-size // self.machine.page) + 1
            self._next += pages * self.machine.page
        return self._bases[space]


def region_line_addresses(
    region: Region, base: int, machine: MachineModel
) -> np.ndarray:
    """Byte addresses (one per distinct line, streaming order) of a region."""
    item = machine.itemsize
    line = machine.l1.line
    if region.cols == 1:
        lo = base + region.start * item
        hi = lo + region.rows * item - 1
        return np.arange(lo - lo % line, hi - hi % line + 1, line, dtype=np.int64)
    pieces = []
    for k in range(region.cols):
        lo = base + (region.start + k * region.col_stride) * item
        hi = lo + region.rows * item - 1
        pieces.append(np.arange(lo - lo % line, hi - hi % line + 1, line, dtype=np.int64))
    return np.concatenate(pieces)


def _column_lines(region: Region, j: int, base: int, machine: MachineModel) -> np.ndarray:
    """Line addresses of one column of a 2-D region."""
    item = machine.itemsize
    line = machine.l1.line
    lo = base + (region.start + j * region.col_stride) * item
    hi = lo + region.rows * item - 1
    return np.arange(lo - lo % line, hi - hi % line + 1, line, dtype=np.int64)


def _mul_addresses(ev: TraceEvent, bases: dict[int, int], machine: MachineModel):
    """Access stream of one leaf multiply, with the kernel's reuse.

    Models the paper's 6-loop leaf (j outer over C columns): for each
    column j, the whole A tile is re-read, then column j of B and column
    j of C are streamed.  A tile that is contiguous and fits L1 hits on
    every re-read; a strided canonical tile whose columns alias in a
    direct-mapped cache misses on them — the self-interference effect
    the recursive layouts exist to remove.
    """
    a, b = ev.reads
    c = ev.write
    a_lines = region_line_addresses(a, bases[a.space], machine)
    pieces = []
    n_cols = max(c.cols, 1)
    for j in range(n_cols):
        pieces.append(a_lines)
        pieces.append(_column_lines(b, min(j, max(b.cols - 1, 0)), bases[b.space], machine))
        pieces.append(_column_lines(c, j, bases[c.space], machine))
    return pieces


def expand_trace(
    events: list[TraceEvent],
    machine: MachineModel,
    space_sizes: dict[int, int] | None = None,
) -> np.ndarray:
    """Lower recorded events to a line-granularity byte-address stream.

    Streamed additions touch each operand line once; leaf multiplies are
    expanded with the leaf kernel's reuse pattern (see
    :func:`_mul_addresses`).  Buffers get their base addresses in
    first-touch order, reads before the write of each event.
    """
    aspace = AddressSpace(machine)
    sizes = space_sizes or {}
    bases: dict[int, int] = {}
    pieces: list[np.ndarray] = []
    for ev in events:
        for r in ev.reads + (ev.write,):
            if r.space not in bases:
                bases[r.space] = aspace.base(
                    r.space, sizes.get(r.space, 0) * machine.itemsize
                )
        if ev.kind == "mul" and len(ev.reads) == 2:
            pieces.extend(_mul_addresses(ev, bases, machine))
        else:
            pieces.extend(
                region_line_addresses(r, bases[r.space], machine)
                for r in ev.reads + (ev.write,)
            )
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


def run_traced_multiply(
    algorithm: str,
    layout: str,
    n: int,
    tile: int,
    mode: str = "accumulate",
    depth: int | None = None,
    ctx: TraceContext | None = None,
) -> tuple[TraceContext, dict[int, int], Tiling]:
    """Run one traced ``n x n`` multiply, returning context/sizes/tiling.

    ``ctx`` lets callers supply a :class:`TraceContext` bound to a
    task-recording runtime (the sanitizer does); by default the serial
    runtime is used.  The returned sizes map buffer-space id -> element
    count *as touched by the trace* (for virtual-address placement); the
    context's ``space_allocs`` carries the true allocation sizes.
    """
    if depth is not None:
        t_leaf = -(-n // (1 << depth))
        t = Tiling(depth, t_leaf, t_leaf, n, n)
    else:
        tiling = matmul_tiling_for_fixed_tile(n, n, n, tile)
        t = Tiling(tiling.d, tiling.t_m, tiling.t_n, n, n)
    ctx = ctx or TraceContext()
    multiply = ALGORITHMS[algorithm]
    if layout.upper() == "LC":
        mats = [
            DenseMatrix.zeros(t.d, t.t_r, t.t_c, n, n) for _ in range(3)
        ]
    else:
        mats = [
            TiledMatrix.zeros(layout, t.d, t.t_r, t.t_c, n, n) for _ in range(3)
        ]
    c, a, b = mats
    kwargs = {"mode": mode} if algorithm == "standard" else {}
    # The no-op leaf kernel leaves product temporaries uninitialized, so
    # the streamed additions may touch NaNs; only addresses matter here.
    with np.errstate(invalid="ignore", over="ignore"):
        multiply(c.root_view(), a.root_view(), b.root_view(), ctx,
                 accumulate=True, **kwargs)
    sizes: dict[int, int] = {}
    for ev in ctx.events:
        for r in ev.reads + (ev.write,):
            sizes[r.space] = max(sizes.get(r.space, 0), r.end)
    return ctx, sizes, t


def trace_multiply(
    algorithm: str,
    layout: str,
    n: int,
    tile: int,
    mode: str = "accumulate",
    depth: int | None = None,
) -> tuple[list[TraceEvent], dict[int, int]]:
    """Record the events of one ``n x n`` multiply (no conversion phase).

    Returns the event list plus a map of buffer-space id -> element
    count, for realistic virtual-address placement.  ``layout="LC"``
    runs the canonical (strided) baseline.  ``depth`` pins the tile-grid
    order (leaf tile becomes ``ceil(n / 2^depth)``) so sweeps over n
    keep one grid regime; by default the grid adapts to ``tile``.
    """
    ctx, sizes, _ = run_traced_multiply(algorithm, layout, n, tile, mode, depth)
    return ctx.events, sizes
