"""The exact capped LRU stack-distance engine behind every cache query.

The stack distance of an access is the number of *distinct* keys
touched since the previous access to the same key; an access hits a
fully-associative LRU cache of capacity ``C`` iff its distance is below
``C`` (Mattson et al.).  Distances at or above the largest capacity a
caller asks about are all just misses, so :func:`stack_distances`
returns ``min(sd, cap)`` per access, a first touch counting as ``cap``:
one array answers every capacity up to ``cap``.

* **Set-associative LRU** (:func:`set_stack_distances`): group the
  trace by set index with a stable counting sort; within the grouped
  stream every set's accesses are contiguous and in program order, a
  line's previous occurrence lies in its own set's segment, and the
  grouped distances *are* the per-set distances.  An access misses an
  ``(n_sets, assoc)`` LRU cache iff its distance reaches ``assoc``.
* **Hit/miss masks** (:func:`lru_hit_mask`,
  :func:`simulate_set_associative`) compare the distances against the
  capacity; they are views of the same engine, not second algorithms.

Consecutive repeats have distance 0 and leave the LRU state unchanged,
so they are dropped first; with ``cap = 1`` nothing else is needed.  On
the remaining stream the distance of access ``i`` is the number of
``j`` in the reuse window ``(prev(i), i)`` whose own previous occurrence
lies at or before ``prev(i)`` (the first touch of its key inside the
window), decided in four exact tiers:

1. **Lockstep runs.**  Loop-structured traces (tile sweeps, cyclic
   working sets — the streams matrix kernels emit) leave *runs* of
   consecutive accesses whose windows slide in lockstep (``prev``
   advances by one as the position does).  Along a run the distance is
   constant: from ``i-1`` to ``i`` the window drops access ``prev(i)``,
   whose key next appears only at ``i``, and gains access ``i-1``, whose
   key last appeared at ``prev(i-1)``, just outside.  Only each run's
   base is decided by the tiers below.  This is what makes at-capacity
   thrashing patterns — the worst case for every bound — cheap.
2. **Short windows.**  A window of at most ``cap - 1`` accesses holds
   fewer than ``cap`` distinct keys; its exact count costs at most
   ``cap - 1`` gathered elements.
3. **Bounds for long windows.**  With ``F`` two grid blocks (a power
   of two of at least ``8C``, ``C = cap``): any access ``j`` among the
   window's first ``F`` with ``jump(j) = j - prev(j) >= F``
   first-touches its key inside the window, and no two such share a
   key; one prefix sum of the indicator counts them.  Windows longer
   than ``F`` that this leaves open use the monotonicity of the
   distinct count under window extension: the internal distinct count
   of a fully-contained block of a time grid bounds it from below, one
   ``bincount`` pass per grid, from the finest grid to coarser ones
   while two blocks still fit.  A bound of at least ``cap`` settles the
   run at ``cap``.
4. **Exact residual.**  Whatever the bounds leave undecided (windows
   whose distinct count sits near ``cap``) is counted exactly by
   :func:`_window_distinct` — padded two-dimensional window gathers
   with reused buffers.  If an adversarial trace makes the gathered
   volume exceed :data:`_RESIDUAL_BUDGET` elements per access, one walk
   of a ``cap``-deep LRU stack keeps the engine exact at roughly the
   reference engine's cost.

Keys are grouped with a one- or two-pass 16-bit radix argsort
(:func:`stable_argsort_bounded`) because NumPy's stable sort is
radix — and therefore fast — only for 8/16-bit integers.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.memsim.machine import CacheGeometry

__all__ = [
    "stable_argsort_bounded",
    "prev_occurrence",
    "stack_distances",
    "set_stack_distances",
    "lru_hit_mask",
    "simulate_set_associative",
]

# Residual windows are resolved by gathering their contents, about 10 ns
# per element; past this many gathered elements per stream access the
# scalar capped-stack walk (1-10 us per access) is cheaper.
_RESIDUAL_BUDGET = 128

# Padded-window gathers process this many elements per chunk so buffers
# stay cache-warm and large allocations are reused, not re-faulted.
_CHUNK_VOLUME = 1 << 22


def stable_argsort_bounded(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative integer keys.

    NumPy's ``kind="stable"`` argsort is a radix sort (fast) only for
    1/2-byte integers; for wider types it falls back to timsort, which
    costs ~10x more.  Keys within 16-bit range are cast down and sorted
    natively; wider bounded ranges get two stable 16-bit passes,
    composing to a stable order.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    hi = int(keys.max())
    if hi < 1 << 16:
        return np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    if hi < 1 << 32:
        low = (keys & 0xFFFF).astype(np.uint16)
        order = np.argsort(low, kind="stable")
        high = (keys[order] >> 16).astype(np.uint16)
        return order[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")


def prev_occurrence(keys: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same key (-1 on first touch).

    ``keys`` may be any integer array; values are shifted to start at 0
    and narrowed to the smallest unsigned type that holds them, so the
    radix argsort and the sorted-key gather move fewer bytes.  The
    result is int32 (traces are indexed well below 2**31).
    """
    keys = np.asarray(keys)
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    lo = keys.min()
    if lo != 0:
        keys = keys - lo
    hi = int(keys.max())
    if hi < 1 << 16:
        keys = keys.astype(np.uint16)
    elif hi < 1 << 32:
        keys = keys.astype(np.uint32)
    order = stable_argsort_bounded(keys)
    order32 = order.astype(np.int32)
    sorted_keys = keys[order]
    prev_sorted = np.empty(n, dtype=np.int32)
    prev_sorted[0] = -1
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev_sorted[1:] = np.where(same, order32[:-1], -1)
    prev = np.empty(n, dtype=np.int32)
    prev[order] = prev_sorted
    return prev


def _window_distinct(prev: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact distinct-key counts of the reuse windows ``(prev[i], i)``.

    The stack distance of access ``i`` equals the number of ``j`` in
    the open interval ``(prev[i], i)`` with ``prev[j] <= prev[i]``
    (accesses whose key first appears inside the window).  Windows are
    grouped by length octave and copied, padded to the group's width,
    as rows of a sliding view over ``prev`` (contiguous row copies, no
    offset arithmetic); the mask buffers are allocated once per call,
    since large fresh allocations fault pages at ~4x the cost of the
    arithmetic on this kind of box.
    """
    m = idx.size
    out = np.zeros(m, dtype=np.int32)
    if m == 0:
        return out
    thr = prev[idx]
    starts = thr + np.int32(1)
    lens = (idx - starts).astype(np.int32)
    longest = int(lens.max())
    if longest <= 0:
        return out
    # Group windows of similar length (same octave) so padding wastes
    # at most 2x; octaves are tiny ints, so the argsort is radix.
    octave = np.frexp(np.maximum(lens, 1).astype(np.float64))[1].astype(np.int16)
    order = np.argsort(octave, kind="stable")
    volume = max(min(_CHUNK_VOLUME, m * longest), longest)
    buf_first = np.empty(volume, dtype=bool)
    buf_valid = np.empty(volume, dtype=bool)
    # Rows of the widest group may run past the end; the padding is
    # masked like any position past a row's own window.
    padded = np.concatenate([prev, np.zeros(longest, dtype=prev.dtype)])
    grouped_oct = octave[order]
    pos = 0
    while pos < m:
        end = pos + int(
            np.searchsorted(grouped_oct[pos:], grouped_oct[pos], side="right")
        )
        group = order[pos:end]
        pos = end
        width = int(lens[group].max())
        if width <= 0:
            continue  # zero-length windows: distinct count stays 0
        rows = max(1, volume // width)
        ar = np.arange(width, dtype=np.int32)
        windows = sliding_window_view(padded, width)
        for s in range(0, group.size, rows):
            g = group[s : s + rows]
            k = g.size
            first = buf_first[: k * width].reshape(k, width)
            valid = buf_valid[: k * width].reshape(k, width)
            np.less_equal(windows[starts[g]], thr[g][:, None], out=first)
            np.less(ar[None, :], lens[g][:, None], out=valid)
            np.logical_and(first, valid, out=first)
            out[g] = first.sum(axis=1, dtype=np.int32)
    return out


def _scalar_capped(keys: np.ndarray, idx: np.ndarray, cap: int) -> np.ndarray:
    """Exact ``min(sd, cap)`` at ``idx`` by one walk of a ``cap``-deep
    LRU stack (most recent first) over the whole stream."""
    flags = np.zeros(keys.size, dtype=bool)
    flags[idx] = True
    flagged = flags.tolist()
    out = np.full(keys.size, cap, dtype=np.int32)
    stack: list[int] = []
    for k, key in enumerate(keys.tolist()):
        try:
            depth = stack.index(key)
        except ValueError:
            if len(stack) == cap:
                stack.pop()
        else:
            if flagged[k]:
                out[k] = depth
            del stack[depth]
        stack.insert(0, key)
    return out[idx]


def _settled(prev: np.ndarray, idx: np.ndarray, cap: int) -> np.ndarray:
    """Whether a cheap lower bound proves that the reuse window
    ``(prev[i], i)`` of each ``i`` in ``idx`` (all longer than ``cap``)
    holds at least ``cap`` distinct keys."""
    pos = np.arange(prev.size, dtype=np.int32)
    p = prev[idx]
    # Grid blocks hold 2**shift >= 4C accesses; "far" is two blocks.
    shift = (4 * cap - 1).bit_length()
    far = 2 << shift
    # An access j in (p, p + far] with j - prev(j) >= far first-touches
    # its key inside the window, and no two such share a key; counting
    # them over the window's first far accesses bounds its distinct
    # count.  (A first touch counts only once j + 1 >= far; that only
    # weakens the bound.)
    s = np.cumsum(pos - prev >= far, dtype=np.int32)
    settled = s[np.minimum(idx - 1, p + far)] - s[p] >= cap
    # Long windows: the internal distinct count of a fully-contained
    # grid block bounds the window's from below.  Windows a grid leaves
    # open retry on the next coarser grid (twice the block) while two of
    # its blocks fit, so the first and last full blocks always lie
    # strictly inside (p, i).
    w = idx - p
    todo = np.flatnonzero(~settled & (w > far))
    while todo.size:
        blk = pos >> shift
        distinct = np.bincount(
            blk[(prev >> shift) < blk], minlength=int(blk[-1]) + 1
        )
        done = (distinct[(p[todo] >> shift) + 1] >= cap) | (
            distinct[(idx[todo] >> shift) - 1] >= cap
        )
        settled[todo[done]] = True
        shift += 1
        todo = todo[~done & (w[todo] > 2 << shift)]
    return settled


def _capped_distances(keys: np.ndarray, cap: int) -> np.ndarray:
    """``min(sd, cap)`` over a stream without consecutive repeats
    (``cap >= 2``), by the four tiers of the module docstring."""
    n = keys.size
    prev = prev_occurrence(keys)
    # Tier 1: an access whose window slides in step with its
    # predecessor's shares its distance; every other access (first
    # touches included) starts a run, and only run starts are decided.
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = (prev[1:] != prev[:-1] + 1) | (prev[:-1] < 0)
    starts = np.flatnonzero(run_start)
    p = prev[starts]
    w = starts - p
    warm = p >= 0
    sd = np.full(starts.size, cap, dtype=np.int32)
    # Tier 2: short windows hold fewer than cap distinct keys.
    short = warm & (w <= cap)
    sd[short] = _window_distinct(prev, starts[short])
    # Tier 3: cheap provable bounds settle most long windows at cap.
    long_ = np.flatnonzero(warm & (w > cap))
    open_ = long_[~_settled(prev, starts[long_], cap)]
    # Tier 4: exact counting for the undecided few.
    residual = starts[open_]
    if int((w[open_] - 1).sum(dtype=np.int64)) > _RESIDUAL_BUDGET * n:
        sd[open_] = _scalar_capped(keys, residual, cap)
    else:
        sd[open_] = np.minimum(_window_distinct(prev, residual), cap)
    return sd[np.cumsum(run_start, dtype=np.int32) - 1]


def stack_distances(keys: np.ndarray, cap: int) -> np.ndarray:
    """Exact LRU stack distance of every access, capped: ``min(sd, cap)``
    with a first touch counted as ``cap`` (int32).

    An access hits a fully-associative LRU of capacity ``C <= cap`` iff
    its result is below ``C``, so one array answers every capacity up to
    ``cap``.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    keys = np.asarray(keys)
    n = keys.size
    if n == 0 or cap == 0:
        return np.full(n, cap, dtype=np.int32)
    # A consecutive repeat is at distance 0; every other access is at
    # distance >= 1, which is all cap = 1 needs to know.
    fresh = np.ones(n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    if cap == 1:
        return fresh.astype(np.int32)
    idx = np.flatnonzero(fresh)
    if idx.size == n:
        return _capped_distances(keys, cap)
    sd = np.zeros(n, dtype=np.int32)
    sd[idx] = _capped_distances(keys[idx], cap)
    return sd


def set_stack_distances(lines: np.ndarray, n_sets: int, cap: int) -> np.ndarray:
    """Exact capped within-set stack distances of a line-id stream, in
    program order: an access misses an ``(n_sets, assoc)`` LRU cache
    with ``assoc <= cap`` iff its result reaches ``assoc``."""
    lines = np.asarray(lines)
    if n_sets == 1 or lines.size == 0:
        return stack_distances(lines, cap)
    order = stable_argsort_bounded(lines % n_sets)
    sd = np.empty(lines.size, dtype=np.int32)
    sd[order] = stack_distances(lines[order], cap)
    return sd


def lru_hit_mask(keys: np.ndarray, capacity: int) -> np.ndarray:
    """Boolean hit mask of a fully-associative LRU cache over a key
    stream (keys may be line ids, page ids, ...)."""
    return stack_distances(keys, capacity) < capacity


def simulate_set_associative(addresses: np.ndarray, geom: CacheGeometry) -> np.ndarray:
    """Boolean miss mask of an exact set-associative LRU cache over a
    byte-address trace."""
    lines = np.asarray(addresses, dtype=np.int64) // geom.line
    return set_stack_distances(lines, geom.n_sets, geom.assoc) >= geom.assoc
