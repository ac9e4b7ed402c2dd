"""Communicating EFSMs: the per-call system of interacting protocol machines.

"We construct communicating finite state machines by connecting the output
of one machine to the input of another machine" (Section 4).  An
:class:`EfsmSystem` owns one instance of each protocol machine, the shared
global variable vector, and the FIFO synchronization channels between them.
Sync events waiting in channels are consumed **before** data-packet events,
honouring the paper's priority rule.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional

from .channels import Channel, channel_name
from .errors import DefinitionError
from .events import Event
from .machine import Efsm, EfsmInstance, FiringResult, copy_state

__all__ = ["EfsmSystem", "ManualClock"]


class _TimerHandle:
    """Cancellation handle for one :class:`ManualClock` timer entry."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry[3] = True


class ManualClock:
    """A trivially settable clock + scheduler for unit-testing machines.

    ``advance`` moves time forward and fires due timers in (time, seq)
    order.  Timers live in a binary heap with lazy cancellation, so the
    common no-timer-due ``advance`` is O(1) and each firing is O(log n) —
    the benchmarks drive thousands of monitored calls through one clock.
    """

    def __init__(self) -> None:
        self.time = 0.0
        self._timers: List[list] = []
        self._seq = 0

    def now(self) -> float:
        return self.time

    def schedule(self, delay: float, callback: Callable[[], None]):
        entry = [self.time + delay, self._seq, callback, False]
        self._seq += 1
        heapq.heappush(self._timers, entry)
        return _TimerHandle(entry)

    def advance(self, delta: float) -> None:
        target = self.time + delta
        timers = self._timers
        while timers and timers[0][0] <= target:
            fire_time, _, callback, cancelled = heapq.heappop(timers)
            if cancelled:
                continue
            self.time = fire_time
            callback()
        self.time = target


class EfsmSystem:
    """A set of interacting EFSM instances sharing globals and channels."""

    #: One system per monitored call: ``__slots__`` keeps the per-call
    #: footprint at the attributes below (no instance dict for the cyclic
    #: GC to scan).  A firing is handed to ``on_result`` and returned by
    #: :meth:`inject`; the system itself retains none.
    __slots__ = (
        "clock_now", "timer_scheduler", "machines", "channels",
        "_channel_list", "globals", "deliveries", "on_result", "on_output",
    )

    def __init__(
        self,
        clock_now: Callable[[], float] = lambda: 0.0,
        timer_scheduler: Optional[Callable[[float, Callable[[], None]], Any]] = None,
    ):
        self.clock_now = clock_now
        self.timer_scheduler = timer_scheduler
        self.machines: Dict[str, EfsmInstance] = {}
        self.channels: Dict[str, Channel] = {}
        #: Flat view of ``channels.values()`` kept in sync by :meth:`connect`;
        #: lets the per-packet empty-channel check skip dict-view creation.
        self._channel_list: List[Channel] = []
        self.globals: Dict[str, Any] = {}
        #: Total firings ever recorded by this system: the one firing
        #: counter, and the change version checkpoints and size memos key on.
        self.deliveries: int = 0
        #: Hook invoked for every firing result (the vids analysis engine).
        self.on_result: Optional[Callable[[FiringResult], None]] = None
        #: Hook invoked for every routed output event ``c!event(x)`` —
        #: the δ-messages between machines — with the sending machine's
        #: name.  Also fires for outputs addressed to the environment
        #: (no such machine here).  Used by call-scoped tracing.
        self.on_output: Optional[Callable[[str, Event], None]] = None

    # -- construction -------------------------------------------------------

    def add_machine(self, definition: Efsm) -> EfsmInstance:
        if definition.name in self.machines:
            raise DefinitionError(f"duplicate machine: {definition.name}")
        instance = EfsmInstance(
            definition,
            shared_globals=self.globals,
            clock_now=self.clock_now,
            timer_scheduler=self.timer_scheduler,
        )
        instance.on_timer_event = partial(self._deliver_timer, definition.name)
        self.machines[definition.name] = instance
        return instance

    def connect(self, sender: str, receiver: str) -> Channel:
        """Create (or return) the FIFO channel from sender to receiver."""
        name = channel_name(sender, receiver)
        if name not in self.channels:
            for machine in (sender, receiver):
                if machine not in self.machines:
                    raise DefinitionError(f"unknown machine: {machine}")
            channel = Channel(sender, receiver)
            self.channels[name] = channel
            self._channel_list.append(channel)
        return self.channels[name]

    # -- execution -----------------------------------------------------------

    def inject(self, machine: str, event: Event) -> List[FiringResult]:
        """Deliver a data-packet event, honouring sync-queue priority.

        Any synchronization events already queued are drained first; the
        data event is then fired; outputs it produces are routed onto their
        channels and drained in turn.  Returns every firing this caused.
        """
        fired: List[FiringResult] = []
        self._drain_channels(fired)
        self._fire(machine, event, fired)
        self._drain_channels(fired)
        return fired

    def _deliver_timer(self, machine: str, event: Event) -> List[FiringResult]:
        fired: List[FiringResult] = []
        self._fire(machine, event, fired)
        self._drain_channels(fired)
        return fired

    def _fire(self, machine: str, event: Event,
              accumulator: List[FiringResult]) -> None:
        instance = self.machines.get(machine)
        if instance is None:
            raise DefinitionError(f"unknown machine: {machine}")
        result = instance.deliver(event)
        accumulator.append(result)
        self.deliveries += 1
        if self.on_result is not None:
            self.on_result(result)
        for output in result.outputs:
            self._route_output(machine, output)

    def _route_output(self, sender: str, event: Event) -> None:
        """Queue an output event onto its channel (created on demand).

        An output addressed to a machine this system does not contain goes
        to the environment: the hook sees it, nothing is queued.
        """
        if self.on_output is not None:
            self.on_output(sender, event)
        channel = self.channels.get(event.channel)
        if channel is None:
            sender_name, _, receiver = event.channel.partition("->")
            if receiver not in self.machines:
                return
            channel = self.connect(sender_name, receiver)
        channel.put(event)

    def _drain_channels(self, accumulator: List[FiringResult]) -> None:
        """Consume queued sync events until every channel is empty."""
        # Fast path for the steady state (nothing queued): a plain loop over
        # the flat channel list with C-level deque truthiness, run twice per
        # injected data packet.
        for channel in self._channel_list:
            if channel._queue:
                break
        else:
            return
        # List iteration reads by index, so channels connected mid-drain
        # (appended to the flat list) are reached on the same sweep.
        channel_list = self._channel_list
        progress = True
        while progress:
            progress = False
            for channel in channel_list:
                queue = channel._queue
                while queue:
                    event = channel.get()
                    assert event is not None
                    self._fire(channel.receiver, event, accumulator)
                    progress = True

    # -- checkpoint / restore --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of the whole call's state.

        Captures the shared globals once, every machine's
        :meth:`~repro.efsm.machine.EfsmInstance.snapshot`, any sync
        events still queued on channels (normally empty at packet
        boundaries, but checkpoints must not assume it), and the firing
        count — the change version, which must not restart from zero and
        climb back to a number an older snapshot was taken at.
        """
        channels: Dict[str, List[Dict[str, Any]]] = {}
        for name, channel in self.channels.items():
            if channel._queue:
                channels[name] = [
                    {"name": event.name, "args": copy_state(dict(event.args)),
                     "time": event.time}
                    for event in channel._queue
                ]
        return {
            "globals": copy_state(self.globals),
            "machines": {name: instance.snapshot()
                         for name, instance in self.machines.items()},
            "channels": channels,
            "deliveries": self.deliveries,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rebuild machine states, globals, and channels from a snapshot.

        The shared globals dict is mutated *in place* — every machine's
        :class:`~repro.efsm.machine.Variables` holds a reference to it, so
        identity must survive the restore.
        """
        self.globals.clear()
        self.globals.update(copy_state(snapshot["globals"]))
        for name, machine_snapshot in snapshot["machines"].items():
            instance = self.machines.get(name)
            if instance is None:
                raise DefinitionError(f"unknown machine: {name}")
            instance.restore(machine_snapshot)
        for channel in self._channel_list:
            channel._queue.clear()
        for name, events in snapshot.get("channels", {}).items():
            channel = self.channels.get(name)
            if channel is None:
                sender, _, receiver = name.partition("->")
                channel = self.connect(sender, receiver)
            for spec in events:
                channel.put(Event(spec["name"], copy_state(spec["args"]),
                                  channel=name, time=spec["time"]))
        self.deliveries = snapshot["deliveries"]

    # -- teardown / inspection -------------------------------------------------

    def cancel_all_timers(self) -> None:
        for instance in self.machines.values():
            instance.cancel_all_timers()

    @property
    def all_final(self) -> bool:
        """True when every machine rests in a final state (call can be
        deleted from the fact base, as Section 7.3 describes)."""
        for machine in self.machines.values():
            if machine.state not in machine.definition.final_states:
                return False
        return True

    def states(self) -> Dict[str, str]:
        return {name: m.state for name, m in self.machines.items()}
