"""Spans recorded from the benchmark's own files, for ``--trace 1`` runs.

The program is not instrumented for the benchmark.  Instead a traced
child process replaces the public functions of each layer, at the name
its caller looks up, with a timing wrapper (for example
``repro.memsim.store.build_profile``, which ``TraceStore.profile``
calls).  The spans go to a private :class:`repro.obs.core.SpanCollector`
and are written once, at exit, in the ``repro.obs`` JSONL schema, so
:func:`repro.obs.report.top_spans` computes their self times.

Each span carries the *phase* it ran in (``cold`` or ``warm``); the
phase is ``None`` between traced blocks, and a wrapper then calls
straight through, which is how one process measures its own tracing
overhead.  Leaf kernels and streamed additions run hundreds of times
per multiply, so they are folded: one ``leaf`` (or ``stream``) child
per enclosing span, carrying the summed time, call count and flops.
"""

from __future__ import annotations

import functools
import importlib
import threading
from typing import Any, Callable

from repro.clock import raw_perf_counter
from repro.obs.core import LiveSpan, SpanCollector

Measure = Callable[[tuple, Any], dict]


def _arg_len(args: tuple, result: Any) -> int:
    return len(args[0])


def _count(key: str, of: Callable[[tuple, Any], int]) -> Measure:
    return lambda args, result: {key: of(args, result)}


def _leaf_flops(args: tuple, result: Any) -> dict:
    _, a, b = args[:3]
    return {"flops": 2 * a.shape[0] * a.shape[1] * b.shape[1]}


#: (owner, attribute, layer, measure) — the owner is ``module`` or
#: ``module:Class``; the attribute is the name the layer's caller looks
#: up, so each entry wraps exactly one call edge.
MEMSIM_LAYERS: list[tuple[str, str, str, Measure | None]] = [
    ("repro.analysis.experiments", "run_sweep", "sweep",
     _count("points", _arg_len)),
    ("repro.analysis.parallel", "run_sweep", "sweep",
     _count("points", _arg_len)),
    ("repro.analysis.experiments", "fig6sim_merge", "experiments.merge", None),
    ("repro.analysis.experiments", "fig6ms_merge", "experiments.merge", None),
    ("repro.memsim.store:TraceStore", "stats", "store.stats", None),
    ("repro.memsim.store:TraceStore", "profile", "store.profile", None),
    ("repro.memsim.store:TraceStore", "trace", "store.trace", None),
    ("repro.memsim.store", "build_profile", "multiconfig.build",
     _count("accesses", _arg_len)),
    ("repro.memsim.multiconfig:ReuseProfile", "query", "multiconfig.query", None),
    ("repro.memsim.multiconfig", "set_stack_distances", "engines",
     _count("keys", _arg_len)),
    ("repro.memsim.multiconfig", "stack_distances", "engines",
     _count("keys", _arg_len)),
    ("repro.memsim.store", "simulate_hierarchy", "hierarchy",
     _count("accesses", _arg_len)),
    ("repro.memsim.store", "synthesize_multiply", "synthesis",
     _count("events", lambda args, result: result[0].n_events)),
    ("repro.memsim.store", "trace_multiply", "synthesis",
     _count("events", lambda args, result: len(result[0]))),
    ("repro.memsim.store", "expand_table", "expand",
     _count("accesses", lambda args, result: len(result))),
    ("repro.memsim.store", "expand_trace", "expand",
     _count("accesses", lambda args, result: len(result))),
]

DGEMM_LAYERS: list[tuple[str, str, str, Measure | None]] = [
    ("repro.algorithms.dgemm", "dgemm", "dgemm", None),
    ("repro.algorithms.dgemm", "to_tiled", "convert",
     _count("bytes", lambda args, result: args[0].nbytes)),
    ("repro.algorithms.dgemm", "to_dense_padded", "convert",
     _count("bytes", lambda args, result: args[0].nbytes)),
    ("repro.algorithms.dgemm", "from_tiled", "convert",
     _count("bytes", lambda args, result: result.nbytes)),
    ("repro.algorithms.dgemm", "plan_partition", "tiling", None),
    *(
        ("repro.algorithms.dgemm:ALGORITHMS", algo, "recursion", None)
        for algo in ("standard", "strassen", "winograd")
    ),
]

#: The fast algorithms' pre- and post-additions, folded like the leaves.
DGEMM_STREAMS: list[tuple[str, str, str, Measure | None]] = [
    ("repro.algorithms.recursion", "add_views", "stream", None),
    ("repro.algorithms.recursion", "iadd_views", "stream", None),
]

SERVE_LAYERS: list[tuple[str, str, str, Measure | None]] = [
    ("repro.serve.server", "parse_request", "protocol.parse", None),
    ("repro.serve.jobs", "build_sweep", "protocol.build_sweep", None),
    ("repro.serve.server:ServeApp", "job_payload", "serve.job_payload", None),
    ("repro.serve.protocol", "fig6sim_merge", "experiments.merge", None),
    ("repro.serve.protocol", "fig6ms_merge", "experiments.merge", None),
]


def _resolve(owner: str) -> Any:
    module, _, name = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, name) if name else obj


class Tracer:
    """Phase switch and call-edge patches over a private span collector."""

    def __init__(self) -> None:
        #: Phase stamped on new spans; ``None`` records nothing.
        self.phase: str | None = None
        self.spans = SpanCollector()
        self._local = threading.local()

    def _folds(self) -> list[dict]:
        """Folded children of this thread's open spans, innermost last."""
        folds = getattr(self._local, "folds", None)
        if folds is None:
            folds = self._local.folds = []
        return folds

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             measure: Measure | None = None) -> Any:
        """Run ``fn`` inside a span named ``name`` (when a phase is set)."""
        phase = self.phase
        if phase is None:
            return fn(*args, **kwargs)
        folds = self._folds()
        folds.append({})
        try:
            with LiveSpan(name, {"phase": phase}, self.spans) as span:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span.set(**measure(args, result))
        finally:
            folded = folds.pop()
        # Folded children hang off the span just closed; LiveSpan keeps
        # its id private, having no public reader for it.
        for child, attrs in folded.items():
            self.spans.record({
                "name": child, "ts": attrs.pop("ts") - self.spans.epoch,
                "dur": attrs.pop("dur"), "tid": threading.get_ident(),
                "id": self.spans.next_id(), "parent": span._id,
                "attrs": {"phase": phase, **attrs},
            })
        return result

    def _fold(self, name: str, fn: Callable, args: tuple, kwargs: dict,
              measure: Measure | None) -> Any:
        folds = self._folds()
        if self.phase is None or not folds:
            return self.call(name, fn, args, kwargs, measure)
        t0 = raw_perf_counter()
        result = fn(*args, **kwargs)
        dur = raw_perf_counter() - t0
        agg = folds[-1].setdefault(name, {"ts": t0, "dur": 0.0, "calls": 0})
        agg["dur"] += dur
        agg["calls"] += 1
        if measure is not None:
            for key, value in measure(args, result).items():
                agg[key] = agg.get(key, 0) + value
        return result

    def wrap(self, name: str, fn: Callable, measure: Measure | None = None,
             fold: bool = False) -> Callable:
        """``fn`` behind a span named ``name``; ``fold`` sums calls into
        one child of the enclosing span."""
        record = self._fold if fold else self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(name, fn, args, kwargs, measure)

        return traced

    def leaf_kernel(self) -> Callable:
        """The BLAS leaf kernel, folded as layer ``leaf``; passed to
        ``dgemm`` as ``kernel=``."""
        from repro.kernels.leaf import leaf_blas

        return self.wrap("leaf", leaf_blas, _leaf_flops, fold=True)

    def install(self, layers: list[tuple[str, str, str, Measure | None]],
                fold: bool = False) -> None:
        """Wrap every listed call edge for the rest of the process."""
        for owner_name, attr, layer, measure in layers:
            owner = _resolve(owner_name)
            if isinstance(owner, dict):
                owner[attr] = self.wrap(layer, owner[attr], measure, fold)
            else:
                setattr(owner, attr,
                        self.wrap(layer, getattr(owner, attr), measure, fold))
