"""Discrete-event simulation engine.

This is the substrate that replaces the paper's OPNET Modeler: a single
binary-heap event loop with a float-seconds clock.  Every component in the
reproduction (phones, proxies, routers, the vids inline device, attackers)
schedules callbacks on one :class:`Simulator` instance, so the whole VoIP
testbed shares one notion of time and one deterministic ordering of events.

Events scheduled for the same instant fire in scheduling order (a per-event
monotonically increasing sequence number breaks ties), which makes runs fully
reproducible for a given seed.  The simulator also owns the run's id
streams (branches, tags, Call-IDs, nonces, packet ids, ...), each counting
from 1, so the bytes a run puts on the wire depend on its recipe alone and
not on what else ran in the process.  The heap holds ``(time, seq, timer)``
tuples, so every comparison a push or pop makes is done in C; ``seq`` is
unique, so the :class:`Timer` itself is never compared.

Cancellation is lazy (entries are flagged and skipped at pop time), but the
engine keeps an exact live-event counter so :attr:`Simulator.pending_events`
is O(1), and it compacts the heap whenever cancelled entries outnumber live
ones — SIP transaction timers cancel constantly, and without compaction a
long run drags a heap full of dead entries through every push and pop.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from typing import Any, Callable, Optional

__all__ = ["Simulator", "Timer", "SimulationError"]

#: Queue size below which cancelled entries are never compacted away.
_COMPACT_MIN_QUEUE = 64


class SimulationError(Exception):
    """Raised for invalid interactions with the simulation engine."""


class Timer:
    """A scheduled event, and the handle that cancels it.

    Timers are how protocol state machines (SIP transaction timers, the
    vids attack-pattern timers T and T1) interact with simulated time.
    The simulator's heap entry is ``(time, seq, timer)``; the timer holds
    the callback and whether it is still pending.
    """

    __slots__ = ("time", "_callback", "_args", "_live", "_sim")

    def __init__(self, sim: "Simulator", time: float,
                 callback: Callable[..., None], args: tuple) -> None:
        #: Absolute simulation time at which the timer fires.
        self.time = time
        self._callback = callback
        self._args = args
        self._live = True
        self._sim = sim

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return self._live

    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired or was cancelled."""
        if self._live:
            self._live = False
            self._sim._note_cancel()


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=100.0)
    """

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute, not a
        #: property: the network reads it on every hop.
        self.now = 0.0
        self._queue: list[tuple[float, int, Timer]] = []
        self._seq = 0
        self._running = False
        self._events_processed = 0
        #: Exact number of queued, not-cancelled, not-fired events.
        self._pending = 0
        #: Cancelled entries still sitting in the heap (lazy deletion debt).
        self._cancelled_in_queue = 0
        self._id_streams: defaultdict = defaultdict(lambda: itertools.count(1))

    def next_id(self, stream: str) -> int:
        """The next number of the id stream ``stream``: 1, 2, 3, ..."""
        return next(self._id_streams[stream])

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled) events still queued.  O(1)."""
        return self._pending

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self.now:   # also true for NaN
            raise SimulationError(
                f"cannot schedule at t={time} (now={self.now})"
            )
        timer = Timer(self, time, callback, args)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, timer))
        self._pending += 1
        return timer

    # -- cancellation ---------------------------------------------------------

    def _note_cancel(self) -> None:
        """Account for a queued timer cancelled in place (lazy deletion);
        compact the heap when it is mostly dead weight."""
        self._pending -= 1
        self._cancelled_in_queue += 1
        if (len(self._queue) >= _COMPACT_MIN_QUEUE
                and self._cancelled_in_queue * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (O(live) amortized).

        In-place (slice assignment) so the run loop's local alias of the
        queue stays valid when a callback's cancel triggers compaction.
        """
        self._queue[:] = [entry for entry in self._queue if entry[2]._live]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    def _pop_live(self) -> Optional[Timer]:
        """Pop the next non-cancelled event, shedding dead entries."""
        queue = self._queue
        while queue:
            timer = heapq.heappop(queue)[2]
            if not timer._live:
                self._cancelled_in_queue -= 1
                continue
            return timer
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Stops when the queue empties, when the next event would be after
        ``until`` (the clock is then advanced to ``until``), or after
        ``max_events`` dispatches.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        dispatched = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                time, _, timer = queue[0]
                if not timer._live:
                    heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                if until is not None and time > until:
                    self.now = until
                    return
                heappop(queue)
                self.now = time
                self._events_processed += 1
                self._pending -= 1
                timer._live = False
                dispatched += 1
                timer._callback(*timer._args)
                if max_events is not None and dispatched >= max_events:
                    return
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Dispatch exactly one event.  Returns False if the queue is empty."""
        timer = self._pop_live()
        if timer is None:
            return False
        self.now = timer.time
        self._events_processed += 1
        self._pending -= 1
        timer._live = False
        timer._callback(*timer._args)
        return True

    def stats(self) -> dict:
        """Point-in-time engine counters (metrics exposition)."""
        return {
            "now": self.now,
            "events_processed": self._events_processed,
            "pending_events": self._pending,
        }

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        queue = self._queue
        while queue and not queue[0][2]._live:
            heapq.heappop(queue)
            self._cancelled_in_queue -= 1
        return queue[0][0] if queue else None
