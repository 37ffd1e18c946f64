"""Machine-speed normalization for host-clock metrics.

The benchmark runs on shared machines whose effective CPU speed swings by
a third or more within seconds, and drifts over minutes, as other tenants
contend for the same cores and caches. :class:`SpeedProbe` samples that
speed uniformly in time: a ``SIGALRM`` interval timer interrupts the
measured work every :data:`INTERVAL_S` and times one slice of a fixed
pure-Python kernel — a heap-driven event loop with a dict counter, the
shape of the simulator's hot loop — in the main thread (no extra thread
or process).

The yardstick is kept independent of the program it measures: the kernel
allocates no garbage-collected objects beyond its own list and dict, and
the collector is paused while it runs, so the program's collections
(whose cost grows with the program's heap) never land inside a slice, and
the slice never moves the program's collection schedule.

Every host-clock interval the benchmark measures is then reported two
ways:

* net: its wall time minus the probe slices that ran inside it;
* normalized: net divided by the interval's *slowness*, the median slice
  time of the samples taken around it over :data:`REFERENCE_SLICE_S`.
  This is the interval's duration at the reference machine speed. The
  median, not the mean, so one slice stretched by an interrupt or a
  descheduling does not rescale its neighbours.

Only CPU work is normalized: time a planner spends waiting on its own
wall-clock budget (a MILP slice stopped by its time limit) takes as long
on any machine, so callers pass it separately and it is left as measured.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import statistics
import time

#: Median slice time on the reference machine (2-vCPU Intel Xeon VM,
#: Python 3.11, unloaded). Changing it rescales every normalized metric.
REFERENCE_SLICE_S = 0.00098
#: Seconds between probe slices (the probe costs ~2% of the work).
INTERVAL_S = 0.05
#: An interval's slowness is the median of at least this many samples,
#: widening the window symmetrically around short intervals.
MIN_SAMPLES = 8


def _slice() -> float:
    """The probe kernel. Floats and small ints are not tracked by the
    garbage collector, so the only tracked allocations are ``heap`` and
    ``counts``."""
    heap: list = []
    counts = dict.fromkeys(range(61), 0)
    acc = 0.0
    for i in range(2000):
        heapq.heappush(heap, (i * 7919) % 2003 * 0.5 + i * 1e-6)
        counts[i % 61] += 1
        acc += (i & 15) * 0.25
    while heap:
        acc += heapq.heappop(heap)
    return acc


def timed_slice() -> float:
    """Seconds one kernel slice takes, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _slice()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples machine speed while active; a context manager.

    Intervals are ``(start, end)`` pairs of :func:`time.perf_counter`
    readings taken while the probe is active.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if len(self.starts) != len(self.durations):
            return  # a slice slower than the interval: skip the nested tick
        self.starts.append(time.perf_counter())
        self.durations.append(timed_slice())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.starts:
            self._sample(None, None)  # a run shorter than one interval

    def _window(self, start: float, end: float) -> tuple[int, int]:
        return (
            bisect.bisect_left(self.starts, start),
            bisect.bisect_left(self.starts, end),
        )

    def net(self, interval: tuple[float, float]) -> float:
        """Wall seconds of ``interval`` minus the probe slices inside it."""
        low, high = self._window(*interval)
        return interval[1] - interval[0] - sum(self.durations[low:high])

    def _slowness(self, low: int, high: int) -> float:
        """Median slice time of samples ``[low, high)`` widened to at least
        :data:`MIN_SAMPLES`, over the reference."""
        count = len(self.durations)
        while high - low < MIN_SAMPLES and (low > 0 or high < count):
            low, high = max(low - 1, 0), min(high + 1, count)
        return statistics.median(self.durations[low:high]) / REFERENCE_SLICE_S

    def slowness(self) -> float:
        """Median slice time of the whole run over the reference; >1 means
        slower than the reference machine."""
        return self._slowness(0, len(self.durations))

    def normalized(
        self, interval: tuple[float, float], budget_wait_s: float = 0.0
    ) -> float:
        """Net seconds of ``interval`` at the reference speed.

        The interval is cut at every probe slice inside it; each piece is
        divided by the slowness of the samples around it, so a long
        interval whose speed changes midway is scaled piece by piece.
        ``budget_wait_s`` of it is wall-clock budget waiting and stays
        unscaled.
        """
        start, end = interval
        low, high = self._window(start, end)
        cuts = [start] + self.starts[low:high] + [end]
        total = 0.0
        for piece in range(len(cuts) - 1):
            seconds = cuts[piece + 1] - cuts[piece]
            if piece:
                seconds -= self.durations[low + piece - 1]
            middle = low + piece
            total += max(seconds, 0.0) / self._slowness(middle - 1, middle + 1)
        net = self.net(interval)
        if net <= 0 or budget_wait_s <= 0:
            return total
        cpu_share = max(net - budget_wait_s, 0.0) / net
        return total * cpu_share + (net - net * cpu_share)
