"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the speed of one core drifts by
tens of percent over seconds to minutes, and it moves every job of a run
together.  While a :class:`SpeedClock` runs, an interval timer interrupts
the process every ``INTERVAL_S`` seconds and times a fixed calibration
kernel (dictionary lookups and small objects, no library code), also in
the middle of long jobs.  A measured interval is then charged its wall
time minus the kernel runs inside it, scaled by ``NOMINAL_S / median(the
kernel times within WINDOW_S of it)``.  Reported times thus read as
seconds at a nominal machine speed, the speed at which one kernel run
takes ``NOMINAL_S``; a change to the library moves them, a busy neighbour
mostly does not.  Needs ``signal.setitimer`` (Unix).
"""

import bisect
import gc
import random
import signal
import statistics
import time

#: Seconds one kernel run takes at the nominal speed (about the kernel's
#: time on an idle x86-64 core under CPython 3.11).
NOMINAL_S = 0.0005
#: Seconds between calibration samples.
INTERVAL_S = 0.025
#: Calibration samples this close to an interval (seconds) set its speed.
WINDOW_S = 0.25

# The kernel's working set: a few megabytes of tuple-keyed dictionary, so
# the kernel feels contention for caches and memory as the library does.
_TABLE = {(i, i * 7 % 1000): i for i in range(30000)}
_KEYS = [(i, i * 7 % 1000) for i in random.Random(0).sample(range(30000), 800)]


class _Node:
    __slots__ = ("low", "high", "value")

    def __init__(self, low, high, value):
        self.low = low
        self.high = high
        self.value = value


def kernel():
    """The calibration workload: dictionary lookups, small objects and a
    memo table, like the library's inner loops but none of its code; the
    collector is paused so it cannot reclaim the interrupted job's garbage
    inside a sample."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        memo = {}
        for key in _KEYS:
            node = _Node(key[0], key[1], _TABLE[key])
            slot = (node.low & 63, node.high & 63)
            seen = memo.get(slot)
            if seen is None:
                memo[slot] = node.value
            else:
                total += seen
        return total
    finally:
        if was_enabled:
            gc.enable()


class SpeedClock:
    """Calibration samples of one process, in time order; use as a
    context manager around the intervals it is to scale."""

    def __init__(self):
        self._starts = []
        self._ends = []
        self._midpoints = []
        self._previous = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self._midpoints.append((start + end) / 2)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, start, end):
        """The interval ``[start, end]`` (``perf_counter`` readings taken
        inside the clock's ``with`` block) in seconds at the nominal speed,
        without the calibration runs that interrupted it."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_right(self._ends, end)
        own = (end - start) - sum(
            self._ends[i] - self._starts[i] for i in range(first, last)
        )
        low = bisect.bisect_left(self._midpoints, start - WINDOW_S)
        high = bisect.bisect_right(self._midpoints, end + WINDOW_S)
        if low == high:  # no sample near: take the closest on either side
            low, high = max(0, low - 1), min(len(self._midpoints), high + 1)
        durations = [self._ends[i] - self._starts[i] for i in range(low, high)]
        return own * NOMINAL_S / statistics.median(durations)
