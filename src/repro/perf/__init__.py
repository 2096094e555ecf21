"""`repro.perf` — performance-regression tracking.

The observability layer (:mod:`repro.obs`) records what one run did;
this package records what runs *used to do* and decides whether the
current one gave anything back:

* :mod:`repro.perf.history` — append-only, content-addressed benchmark
  history under ``.benchmarks/history/*.jsonl`` (one provenance-linked
  record per CLI sweep / bench session / ``repro serve`` session);
* :mod:`repro.perf.compare` — differential analysis with MAD-based
  noise tolerance bands and exact matching for structural metrics;
* :mod:`repro.perf.cli` — ``python -m repro perf compare|check|history``,
  gated by the ``perf_budgets`` table in :mod:`repro.knobs`.

``REPRO_PERF_HISTORY=0`` stops runs from appending;
``REPRO_PERF_HISTORY_DIR`` relocates the store.
"""

from repro.perf.compare import (
    best_of,
    compare_records,
    compare_spans,
    noise_band,
    render_comparison,
    render_span_diff,
)
from repro.perf.history import (
    HISTORY_SCHEMA_VERSION,
    HistoryStore,
    as_stream_name,
    build_record,
    default_history_dir,
    flatten_metrics,
    history_enabled,
    record_from_obs,
    span_self_times,
)

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "HistoryStore",
    "as_stream_name",
    "best_of",
    "build_record",
    "compare_records",
    "compare_spans",
    "default_history_dir",
    "flatten_metrics",
    "history_enabled",
    "noise_band",
    "record_from_obs",
    "render_comparison",
    "render_span_diff",
    "span_self_times",
]
