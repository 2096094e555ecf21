"""`repro.staticcheck` — static determinacy verification.

Proves race-freedom of every registered algorithm x layout pair at
*symbolic* matrix size by unrolling the recursion over descriptor-only
views, joining each task's closed-form footprint to its SP-tree
position, and running the dynamic detector's footprint algebra over the
result — or reports a concrete conflicting task pair.  See
:mod:`repro.staticcheck.verify` for the certification argument and
:mod:`repro.staticcheck.context` for the recording machinery.
The CLI front end is ``python -m repro staticcheck``.
"""

from repro.staticcheck.context import (
    StaticTraceContext,
    check_events,
    sym_region,
    sym_root,
)
from repro.staticcheck.verify import (
    DEFAULT_DEPTH,
    StaticCheckReport,
    all_pairs,
    reports_to_json,
    static_trace,
    staticcheck_all,
    staticcheck_multiply,
)

__all__ = [
    "DEFAULT_DEPTH",
    "StaticCheckReport",
    "StaticTraceContext",
    "all_pairs",
    "check_events",
    "reports_to_json",
    "static_trace",
    "staticcheck_all",
    "staticcheck_multiply",
    "sym_region",
    "sym_root",
]
