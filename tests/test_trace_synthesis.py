"""Symbolic trace synthesis vs the executed tracer: byte identity.

Synthesis is the only production trace source, and these tests are
where the executed tracer still checks it.  The synthesizer's whole
contract is that its structure-of-arrays event tables expand to the
*same bytes* the executed path produces — same addresses, same order.
The property tests here sweep every traceable algorithm x layout pair
over mixed sizes (pow-2 grids where templates repeat exactly, padded
sizes where the tiling rounds up) and compare streams literally; they
also hold the vectorized expander to the executed one on the synthetic
event sources, whatever its fill slice, and the false-sharing table's
owners and statistics to their executed-trace values.
``tests/test_golden_figures.py`` runs the whole memsim-backed figures
from each source against the goldens.
"""

import numpy as np
import pytest

from repro.layouts.registry import PAPER_LAYOUTS
from repro.memsim import synthesis
from repro.memsim.coherence import assign_by_output, false_sharing_stats
from repro.memsim.machine import scaled, ultrasparc_like
from repro.memsim.synthesis import (
    EventTable,
    SynthesisContext,
    UnsupportedSynthesis,
    expand_table,
    synthesize_multiply,
)
from repro.memsim.synthetic import (
    blocked_canonical_events,
    dense_standard_events,
    dense_strassen_events,
)
from repro.memsim.trace import expand_trace, trace_multiply

MACH = scaled(4)

#: The figure-grid algorithms; hybrid/strassen_space covered separately.
ALGORITHMS = ("standard", "strassen", "winograd")

#: pow-2 (exact tile grids) and padded (tiling rounds n up) sizes.
SIZES = (16, 24)


def _executed(algorithm, layout, n, tile=8, **kw):
    events, sizes = trace_multiply(algorithm, layout, n, tile, **kw)
    return events, sizes


def _synthesized(algorithm, layout, n, tile=8, **kw):
    return synthesize_multiply(algorithm, layout, n, tile, **kw)


class TestByteIdentity:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("layout", PAPER_LAYOUTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_stream_identical(self, algorithm, layout, n):
        events, sizes = _executed(algorithm, layout, n)
        table, ssizes = _synthesized(algorithm, layout, n)
        ref = expand_trace(events, MACH, sizes)
        got = expand_table(table, MACH, ssizes)
        assert ref.dtype == got.dtype == np.int64
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("layout", ("LC", "LZ", "LH"))
    @pytest.mark.parametrize("algorithm", ("hybrid", "strassen_space"))
    def test_stream_identical_extra_algorithms(self, algorithm, layout):
        events, sizes = _executed(algorithm, layout, 24)
        table, ssizes = _synthesized(algorithm, layout, 24)
        assert np.array_equal(
            expand_trace(events, MACH, sizes), expand_table(table, MACH, ssizes)
        )

    @pytest.mark.parametrize("layout", ("LC", "LG", "LH"))
    def test_standard_temps_mode(self, layout):
        events, sizes = _executed("standard", layout, 16, mode="temps")
        table, ssizes = _synthesized("standard", layout, 16, mode="temps")
        assert np.array_equal(
            expand_trace(events, MACH, sizes), expand_table(table, MACH, ssizes)
        )

    @pytest.mark.parametrize("depth", (1, 2))
    def test_depth_pinned(self, depth):
        events, sizes = _executed("strassen", "LZ", 20, tile=4, depth=depth)
        table, ssizes = _synthesized("strassen", "LZ", 20, tile=4, depth=depth)
        assert np.array_equal(
            expand_trace(events, MACH, sizes), expand_table(table, MACH, ssizes)
        )

    def test_full_size_machine_geometry(self):
        # Different line/page sizes change alignment and base placement.
        mach = ultrasparc_like()
        events, sizes = _executed("winograd", "LH", 24)
        table, ssizes = _synthesized("winograd", "LH", 24)
        assert np.array_equal(
            expand_trace(events, mach, sizes), expand_table(table, mach, ssizes)
        )


#: The synthetic event sources the trace store expands through tables.
SYNTHETIC_SOURCES = {
    "dense_standard": dense_standard_events,
    "dense_strassen": lambda n, tile: dense_strassen_events(n, tile, depth=2),
    "blocked_canonical": blocked_canonical_events,
}


class TestSyntheticSources:
    @pytest.mark.parametrize("machine", (MACH, ultrasparc_like()),
                             ids=("scaled4", "ultrasparc"))
    @pytest.mark.parametrize("n", (24, 61))
    @pytest.mark.parametrize("source", sorted(SYNTHETIC_SOURCES))
    def test_table_expansion_identical(self, source, n, machine):
        """What the store's synthetic builder expands equals the
        executed expander's stream, event by event."""
        events = SYNTHETIC_SOURCES[source](n, 8)
        ref = expand_trace(events, machine)
        got = expand_table(EventTable.from_events(events), machine)
        assert ref.dtype == got.dtype == np.int64
        assert np.array_equal(ref, got)


class TestChunkBoundaries:
    @pytest.mark.parametrize("slice_size", (1, 7, 777, 4096))
    @pytest.mark.parametrize("algorithm", ("standard", "strassen"))
    def test_chunks_identical(self, algorithm, slice_size, monkeypatch):
        """:func:`expand_table` fills its output in slices of whole
        pieces, ``EXPAND_SLICE`` addresses or more each; the slice
        boundaries leave no mark, from one piece per slice up."""
        events, sizes = _executed(algorithm, "LZ", 24)
        table, ssizes = _synthesized(algorithm, "LZ", 24)
        ref = expand_trace(events, MACH, sizes)
        monkeypatch.setattr(synthesis, "EXPAND_SLICE", slice_size)
        assert np.array_equal(ref, expand_table(table, MACH, ssizes))


class TestFalseSharingEvents:
    @pytest.mark.parametrize("procs", (2, 4))
    @pytest.mark.parametrize("n", (61, 64))
    def test_owners_and_stats_match_executed(self, n, procs):
        """``false_sharing_table``'s LZ column reads synthesized events;
        the owners and statistics equal the executed trace's."""
        mach = ultrasparc_like()

        def sharing(events, sizes):
            c_space = events[0].write.space
            owner = assign_by_output(
                events, procs, c_space, n, tiled_total=sizes[c_space]
            )
            return owner, false_sharing_stats(events, owner, mach, sizes)

        ref_owner, ref_stats = sharing(*_executed("standard", "LZ", n))
        table, sizes = _synthesized("standard", "LZ", n)
        owner, stats = sharing(table.to_events(), sizes)
        assert np.array_equal(owner, ref_owner)
        assert stats == ref_stats


class TestEventTable:
    def test_from_events_round_trip(self):
        events, sizes = _executed("strassen", "LG", 16)
        table = EventTable.from_events(events)
        assert table.n_events == len(events)
        back = table.to_events()
        assert [(e.kind, e.write, e.reads) for e in back] == [
            (e.kind, e.write, e.reads) for e in events
        ]
        assert table.space_sizes() == sizes

    def test_from_events_expansion_matches(self):
        events, sizes = _executed("winograd", "LX", 24)
        table = EventTable.from_events(events)
        assert np.array_equal(
            expand_trace(events, MACH, sizes),
            expand_table(table, MACH, table.space_sizes()),
        )

    def test_synthesized_sizes_match_executed(self):
        _, sizes = _executed("standard", "LZ", 24)
        _, ssizes = _synthesized("standard", "LZ", 24)
        # Space ids differ (id() vs sequential) but the size multiset —
        # what address placement consumes — must agree exactly.
        assert sorted(sizes.values()) == sorted(ssizes.values())

    def test_empty_table(self):
        t = EventTable.empty()
        assert t.n_events == 0
        assert t.space_sizes() == {}
        assert expand_table(t, MACH).size == 0


def _template_count(layout: str, d: int) -> tuple[int, int]:
    """(distinct templates, recorded events) for a standard multiply on
    an exact pow-2 tile grid of order ``d``."""
    from repro.layouts.registry import get_recursive_layout
    from repro.memsim.synthesis import SPEC_BUILDERS, SymQuadView, _descend

    ctx = SynthesisContext()
    curve = get_recursive_layout(layout)

    def root():
        return SymQuadView(ctx.alloc, curve, 8, 8, ctx.alloc.new(), 0, d, 0)

    _descend(ctx, SPEC_BUILDERS["standard"]("accumulate"),
             root(), root(), root(), True)
    return len(ctx.templates), ctx.build().n_events


class TestTemplateMemoization:
    def test_pow2_morton_builds_one_template_per_depth(self):
        """A pow-2 Morton grid needs one template per depth, not one
        recursion per leaf: every sibling is a base-offset copy."""
        templates, events = _template_count("LZ", 3)
        assert events == 512  # 8^3 leaf multiplies
        assert templates == 3

    def test_orientations_key_the_cache(self):
        """Gray-Morton's 2 and Hilbert's 4 orientations fan the key
        space out, but it stays bounded by orientation combinations per
        depth — nowhere near the 8^d recursion count."""
        lz, _ = _template_count("LZ", 4)
        lg, _ = _template_count("LG", 4)
        lh, events = _template_count("LH", 4)
        assert events == 4096
        assert lz < lg < lh
        # Orientation triples per depth cap the cache (minus the top
        # level, whose operands all start at orientation 0).
        assert lh <= 3 + 4**3 * 3
        assert lg <= 3 + 2**3 * 3


class TestUnsupportedFallback:
    def test_unknown_algorithm_raises(self):
        with pytest.raises(UnsupportedSynthesis):
            synthesize_multiply("nosuch", "LZ", 16, 8)
