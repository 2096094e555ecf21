"""Host speed, probed next to every timing, so that runs on a shared host
compare.

The virtual machine this benchmark was written on (2 vCPUs of a shared
Xeon host) runs each vCPU at one of two speeds, most likely as another
tenant's work on the same physical core comes and goes: the same Python
code takes 1.5x to 2x as long in the slow state.  The state changes
after anything from a tenth of a second to a minute, so the share of
slow time in a 20 s run ranges from none to all of it, and the median
warm figure job of ten runs spread by 41% (interquartile range over
median) with the program unchanged.  No statistic of raw times is
steady then.

So every timed interval is bracketed by probes: a fixed piece of the
benchmark's own Python, independent of the program, that slows down in
step with the workloads.  The probe evicts the L2 cache by reading a
buffer, so it starts from the same cache state whatever ran before it,
then times building and sorting 600 small dicts with the garbage
collector off, so the program's heap does not enter it.  Over a minute
of alternating probes and operations, the log of each workload's
operation time rose with the log of the probe time at a slope of 1.00
to 1.03, and the probe read the same after an operation as after
another probe (within 5%).

A time is reported at the reference speed: ``raw * REFERENCE_S /
probe``, ``probe`` being the mean of the probes just before and just
after the interval.  A long interval can also be cut by probes every
``SAMPLE_S`` seconds, run from a timer signal, so that a speed change in
its middle is seen; each piece is scaled by the probes at its two ends,
and the probes' own time is left out.  The work timed must then run on
this process's CPU: in this process, or in a child pinned to the same
CPU, which the probe pre-empts.  ``REFERENCE_S`` is about what the probe
takes on that host in its fast state, so reported times read roughly as
that host gives them when quiet.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.clock import raw_perf_counter

#: Probe time, in seconds, that every reported time is scaled to.
REFERENCE_S = 2.5e-4

#: Seconds between probes inside a long interval.
SAMPLE_S = 0.05

#: Bytes read before each probe: several times the L2 cache of the
#: development host (2 MiB per core).
_FLUSH_BYTES = 8 << 20


@dataclass
class Timing:
    """One timed interval: at the reference speed, and as the clock read
    it with the probes inside it left out."""

    scaled: float = 0.0
    raw: float = 0.0


class HostSpeed:
    """Probes the host's current speed and times intervals by it.

    Intervals are timed back to back: :meth:`timing` probes when its
    block ends, and that probe also opens the next interval.
    """

    #: Resident memory the probe adds to its process, in MiB.
    resident_mb = _FLUSH_BYTES / (1 << 20)

    def __init__(self) -> None:
        self._flush = np.ones(_FLUSH_BYTES // 8)
        self.last = self.probe()

    def probe(self) -> float:
        """Seconds the probe work takes now, from a flushed L2 cache."""
        self._flush.sum()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = raw_perf_counter()
            rows = [{"a": i, "b": str(i), "c": (i, i + 1.5)} for i in range(600)]
            rows.sort(key=lambda r: -r["a"])
            dt = raw_perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        return dt

    def restart(self) -> None:
        """Probe afresh, when something untimed ran since the last probe."""
        self.last = self.probe()

    @contextmanager
    def timing(self, sample_s: float | None = None) -> Iterator[Timing]:
        """Time the block; with ``sample_s``, probe inside it too, every
        ``sample_s`` seconds.  The yielded :class:`Timing` is filled in
        when the block ends."""
        # (start, end, reading) of each probe taken inside the block.
        marks: list[tuple[float, float, float]] = []

        def tick(signum, frame) -> None:
            start = raw_perf_counter()
            reading = self.probe()
            marks.append((start, raw_perf_counter(), reading))
            signal.setitimer(signal.ITIMER_REAL, sample_s)

        timing = Timing()
        if sample_s:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, sample_s)
        t0 = raw_perf_counter()
        try:
            yield timing
        finally:
            if sample_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            t1 = raw_perf_counter()
        start, reading = t0, self.last
        for probe_start, probe_end, next_reading in [*marks, (t1, t1, self.probe())]:
            timing.raw += probe_start - start
            timing.scaled += ((probe_start - start) * REFERENCE_S
                              / ((reading + next_reading) / 2))
            start, reading = probe_end, next_reading
        self.last = reading
