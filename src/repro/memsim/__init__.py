"""Trace-driven memory-hierarchy simulator substrate."""

from repro.memsim.cache import (
    LRUCache,
    miss_count,
    simulate_direct_mapped,
    simulate_lru,
)
from repro.memsim.classify import MissBreakdown, classify_misses
from repro.memsim.coherence import SharingStats, assign_by_output, false_sharing_stats
from repro.memsim.engines import (
    lru_hit_mask,
    prev_occurrence,
    set_stack_distances,
    simulate_set_associative,
    stable_argsort_bounded,
    stack_distances,
)
from repro.memsim.hierarchy import MemoryStats, simulate_hierarchy
from repro.memsim.machine import (
    CacheGeometry,
    MachineModel,
    modern_like,
    scaled,
    ultrasparc_like,
)
from repro.memsim.store import (
    TraceStore,
    cached_multiply_stats,
    cached_synthetic_stats,
    default_store,
)
from repro.memsim.synthetic import dense_standard_events, dense_strassen_events
from repro.memsim.trace import (
    AddressSpace,
    Region,
    TraceContext,
    TraceEvent,
    expand_trace,
    run_traced_multiply,
    trace_multiply,
    view_buffer,
    view_region,
)

__all__ = [
    "LRUCache",
    "miss_count",
    "simulate_direct_mapped",
    "simulate_lru",
    "MissBreakdown",
    "classify_misses",
    "SharingStats",
    "assign_by_output",
    "false_sharing_stats",
    "lru_hit_mask",
    "prev_occurrence",
    "set_stack_distances",
    "simulate_set_associative",
    "stable_argsort_bounded",
    "stack_distances",
    "MemoryStats",
    "simulate_hierarchy",
    "CacheGeometry",
    "MachineModel",
    "modern_like",
    "scaled",
    "ultrasparc_like",
    "TraceStore",
    "cached_multiply_stats",
    "cached_synthetic_stats",
    "default_store",
    "dense_standard_events",
    "dense_strassen_events",
    "AddressSpace",
    "Region",
    "TraceContext",
    "TraceEvent",
    "expand_trace",
    "run_traced_multiply",
    "trace_multiply",
    "view_buffer",
    "view_region",
]
