"""A speed probe: how fast is this box running *right now*?

The boxes the benchmark runs on share their cores, caches and memory with
other guests and flip, many times a second, between an undisturbed speed
and one up to twice slower; a replay that takes 0.45 s in a quiet moment
takes 0.9 s in a busy one.  No way of reducing raw repeats to one number
survives that (README, "Noise"), so the benchmark measures the
disturbance instead: a fixed piece of work — one *pass* of the probe,
some tens of microseconds of bytecode, dictionary walks and cache-missing
look-ups that nothing under ``src/`` can make faster or slower — is timed
every few milliseconds *while* the program under test runs, from an
interval-timer signal handler or from the benchmark's own loop.  A pass
that takes twice its nominal time says the box ran at half speed around
that moment.

Every CPU-bound timing the benchmark reports is scaled by the speed the
probe saw during it: it reads as the time the work would have taken on a
core where one pass takes :data:`NOMINAL_NS` — about the undisturbed
speed of the box the benchmark was sized on.  Two runs of one commit then
agree whether or not a neighbour was busy, and a change to the program
still shows, because the probe runs none of the program's code.
"""

from __future__ import annotations

import random
import signal
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator, List, Sequence, Tuple

#: What one pass takes on the nominal core.  A constant, not a
#: measurement: it fixes the unit of every scaled timing.
NOMINAL_NS = 48_000.0
#: Seconds between passes while :meth:`SpeedProbe.ticking`.
INTERVAL = 0.005

#: The three kinds of work a pass does, in about equal parts: plain
#: bytecode, a walk over a few hundred small objects that stay cached,
#: and look-ups scattered over a pool too large for the core's own caches
#: (another stretch of it every pass, so they stay cold).
_LOOP = 400
_CELLS = [{"k": n, "v": str(n)} for n in range(250)]
_POOL = [{"k": n, "v": str(n)} for n in range(20_000)]
_STRETCH = 24
_ORDER = list(range(len(_POOL)))
random.Random(0).shuffle(_ORDER)


def one_pass(turn: int) -> int:
    total = 0
    for n in range(_LOOP):
        total += n * n
    for cell in _CELLS:
        total += len(cell["v"]) + cell["k"]
    pool = _POOL
    start = (turn * _STRETCH) % (len(_ORDER) - _STRETCH)
    for index in _ORDER[start:start + _STRETCH]:
        total += len(pool[index]["v"])
    return total


class SpeedProbe:
    """Start times and durations (``perf_counter_ns``) of the passes made."""

    def __init__(self) -> None:
        self.at = array("q")
        self.took = array("q")
        self._previous_handler = None

    def sample(self) -> int:
        """One pass now; returns the time it ended."""
        begin = perf_counter_ns()
        one_pass(len(self.at))
        end = perf_counter_ns()
        self.at.append(begin)
        self.took.append(end - begin)
        return end

    def start(self, interval: float = INTERVAL) -> None:
        """A pass every ``interval`` seconds from now on, from a
        ``SIGALRM`` handler (so: main thread only), and one at once."""
        def tick(signum, frame) -> None:
            self.sample()

        self._previous_handler = signal.signal(signal.SIGALRM, tick)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    @contextmanager
    def ticking(self, interval: float = INTERVAL) -> Iterator[None]:
        self.start(interval)
        try:
            yield
        finally:
            self.stop()

    def scale(self, samples: Sequence[float],
              stretches: Sequence[int]) -> List[float]:
        """Timings taken between passes, at nominal speed.

        ``stretches[n]`` is the index of the first sample taken after pass
        ``n`` (so there is one more pass than stretches, and the last
        entry is ``len(samples)``); each stretch is scaled by the mean
        speed of the two passes around it.  Speed is nominal ÷ measured
        pass time: 1.0 on the nominal core, 0.5 when everything takes
        twice as long.
        """
        speeds = [NOMINAL_NS / ns for ns in self.took]
        scaled: List[float] = []
        for n in range(len(stretches) - 1):
            speed = (speeds[n] + speeds[n + 1]) / 2.0
            scaled.extend(sample * speed for sample
                          in samples[stretches[n]:stretches[n + 1]])
        return scaled

    def at_nominal(self, begin_ns: int, end_ns: int, seconds: float) -> float:
        """``seconds`` of wall or CPU time, measured over an interval the
        probe made passes in, as they would read at nominal speed.  The
        passes themselves are taken out: they are not the program's time."""
        speed, in_passes = self.between(begin_ns, end_ns)
        return (seconds - in_passes / 1e9) * speed

    def between(self, begin_ns: int, end_ns: int) -> Tuple[float, int]:
        """(mean speed, nanoseconds spent in passes) over the passes that
        began inside the interval; the speed of the nearest pass when
        none did."""
        at, took = self.at, self.took
        first, last = bisect_left(at, begin_ns), bisect_left(at, end_ns)
        if first == last:
            nearest = min((n for n in (first - 1, first) if 0 <= n < len(at)),
                          key=lambda n: abs(at[n] - begin_ns))
            return NOMINAL_NS / took[nearest], 0
        return (sum(NOMINAL_NS / ns for ns in took[first:last])
                / (last - first), sum(took[first:last]))
