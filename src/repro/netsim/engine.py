"""Discrete-event simulation engine.

This is the substrate that replaces the paper's OPNET Modeler: a single
binary-heap event loop with a float-seconds clock.  Every component in the
reproduction (phones, proxies, routers, the vids inline device, attackers)
schedules callbacks on one :class:`Simulator` instance, so the whole VoIP
testbed shares one notion of time and one deterministic ordering of events.

Events scheduled for the same instant fire in scheduling order (a per-event
monotonically increasing sequence number breaks ties), which makes runs fully
reproducible for a given seed.

Cancellation is lazy (entries are flagged and skipped at pop time), but the
engine keeps an exact live-event counter so :attr:`Simulator.pending_events`
is O(1), and it compacts the heap whenever cancelled entries outnumber live
ones — SIP transaction timers cancel constantly, and without compaction a
long run drags a heap full of dead entries through every push and pop.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Simulator", "Timer", "SimulationError"]

#: Queue size below which cancelled entries are never compacted away.
_COMPACT_MIN_QUEUE = 64


class SimulationError(Exception):
    """Raised for invalid interactions with the simulation engine."""


@dataclass(order=True, slots=True)
class _ScheduledEvent:
    """Internal heap entry: ordered by (time, seq)."""

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    fired: bool = field(compare=False, default=False)
    label: str = field(compare=False, default="")


class Timer:
    """Handle to a scheduled event, allowing cancellation.

    Timers are how protocol state machines (SIP transaction timers, the
    vids attack-pattern timers T and T1) interact with simulated time.
    """

    __slots__ = ("_sim", "_event")

    def __init__(self, sim: "Simulator", event: _ScheduledEvent):
        self._sim = sim
        self._event = event

    @property
    def time(self) -> float:
        """Absolute simulation time at which the timer fires."""
        return self._event.time

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not self._event.cancelled and not self._event.fired

    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired or was cancelled."""
        self._sim._cancel(self._event)


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=100.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[_ScheduledEvent] = []
        self._seq = 0
        self._running = False
        self._events_processed = 0
        #: Exact number of queued, not-cancelled, not-fired events.
        self._pending = 0
        #: Cancelled entries still sitting in the heap (lazy deletion debt).
        self._cancelled_in_queue = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled) events still queued.  O(1)."""
        return self._pending

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if math.isnan(time) or time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now})"
            )
        event = _ScheduledEvent(
            time=time, seq=self._seq, callback=callback, args=args, label=label
        )
        self._seq += 1
        heapq.heappush(self._queue, event)
        self._pending += 1
        return Timer(self, event)

    # -- cancellation ---------------------------------------------------------

    def _cancel(self, event: _ScheduledEvent) -> None:
        """Lazily cancel a queued event; compact the heap when it is mostly
        dead weight."""
        if event.cancelled or event.fired:
            return
        event.cancelled = True
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
        self._queue[:] = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    def _pop_live(self) -> Optional[_ScheduledEvent]:
        """Pop the next non-cancelled event, shedding dead entries."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            return event
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
        try:
            while queue:
                event = queue[0]
                if event.cancelled:
                    heapq.heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                if until is not None and event.time > until:
                    self._now = until
                    return
                heapq.heappop(queue)
                self._now = event.time
                self._events_processed += 1
                self._pending -= 1
                event.fired = True
                dispatched += 1
                event.callback(*event.args)
                if max_events is not None and dispatched >= max_events:
                    return
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Dispatch exactly one event.  Returns False if the queue is empty."""
        event = self._pop_live()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        self._pending -= 1
        event.fired = True
        event.callback(*event.args)
        return True

    def stats(self) -> dict:
        """Point-in-time engine counters (metrics exposition)."""
        return {
            "now": self._now,
            "events_processed": self._events_processed,
            "pending_events": self._pending,
        }

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
            self._cancelled_in_queue -= 1
        return queue[0].time if queue else None
