"""Speed correction: report times "at reference speed".

The benchmark host is a small shared VM whose speed drifts by tens of
percent within seconds (the same pure-Python loop takes 29 to 57 ms in
one 30 s window). Raw medians therefore move more between runs than the
changes the benchmark has to detect. The :class:`SpeedClock` runs a
short, fixed pure-Python calibration slice at a steady cadence through
every timed phase. Each measured interval is corrected by
``NOMINAL_SLICE_S / measured slice time`` for the slices nearest to it,
so a phase that ran while the host was slow reads what it would have
read at reference speed. Slice time is never part of any interval.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import Optional

__all__ = ["NOMINAL_SLICE_S", "SpeedClock", "calibration_slice"]

#: objects the calibration slice allocates and walks (about half a ms)
SLICE_OBJECTS = 1200
#: the slice's duration at reference speed; corrected times are in
#: seconds and milliseconds of a host on which one slice takes this long
NOMINAL_SLICE_S = 0.0005
#: run a slice at most this often (seconds of wall time between slices)
CADENCE_S = 0.010
#: slices on each side of an interval that set its correction factor
NEIGHBOURS = 2


class _Cell:
    __slots__ = ("key", "value", "next")


def calibration_slice() -> int:
    """Fixed pure-Python work like the engine's: small-object allocation,
    dict inserts and pointer chasing. On this kind of host it tracks the
    engine's speed better than a loop that stays in the first-level
    cache: on a shared 2-CPU VM, the spread of per-chunk medians of a
    path-expansion query was 20% raw, 4.6% corrected by such a loop and
    3.1% corrected by this slice."""
    table: dict = {}
    head = None
    for i in range(SLICE_OBJECTS):
        cell = _Cell()
        cell.key = i
        cell.value = (i, str(i))
        cell.next = head
        head = cell
        table[i] = cell
    total = 0
    while head is not None:
        total += head.value[0]
        head = head.next
    return total


class SpeedClock:
    """Calibration slices plus the arithmetic that corrects intervals.

    Callers time their own intervals with :func:`time.perf_counter` and
    call :meth:`tick` between operations; ``tick`` runs a slice when the
    cadence has elapsed. :meth:`corrected` turns a raw ``(t0, t1)``
    interval into reference-speed seconds, leaving out any slice that
    ran inside it.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._durations: list[float] = []
        self._last = -1.0

    def slice(self) -> None:
        # the collector stays off inside the slice: a collection there
        # would time the engine's heap, not the host
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_slice()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self._starts.append(start)
        self._ends.append(end)
        self._durations.append(end - start)
        self._last = end

    def tick(self) -> None:
        """Run a slice when the cadence has elapsed since the last one."""
        if time.perf_counter() - self._last >= CADENCE_S:
            self.slice()

    def _factor(self, t0: float, t1: float) -> float:
        """``nominal / measured`` over the slices nearest ``[t0, t1]``."""
        before = bisect.bisect_right(self._ends, t0)
        after = bisect.bisect_left(self._starts, t1)
        near = (self._durations[max(0, before - NEIGHBOURS):before]
                + self._durations[after:after + NEIGHBOURS])
        if not near:
            return 1.0
        return NOMINAL_SLICE_S / statistics.median(near)

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds at reference speed for the raw interval ``[t0, t1]``."""
        first = bisect.bisect_left(self._starts, t0)
        last = bisect.bisect_left(self._starts, t1)
        total = 0.0
        edge = t0
        for index in range(first, last):
            # a slice ran inside the interval: correct the piece before
            # it, then continue after it
            start = self._starts[index]
            if start > edge:
                total += (start - edge) * self._factor(edge, start)
            edge = max(edge, self._ends[index])
        if t1 > edge:
            total += (t1 - edge) * self._factor(edge, t1)
        return total

    def slice_time_inside(self, t0: float, t1: float) -> float:
        """Raw seconds of calibration slices that ran inside ``[t0, t1]``."""
        first = bisect.bisect_left(self._starts, t0)
        last = bisect.bisect_left(self._starts, t1)
        return sum(self._durations[first:last])

    def speed_factor(self) -> Optional[float]:
        """Median measured slice over the nominal (above 1: host slower
        than reference)."""
        if not self._durations:
            return None
        return statistics.median(self._durations) / NOMINAL_SLICE_S
