"""Communicating EFSMs: the per-call system of interacting protocol machines.

"We construct communicating finite state machines by connecting the output
of one machine to the input of another machine" (Section 4).  An
:class:`EfsmSystem` owns one instance of each protocol machine and the
shared global variable vector.  Delivering an event is one macro-step: the
firing's synchronization events are consumed, breadth-first in the order
they were sent, before the step returns — so none is ever left waiting
when the next data-packet event arrives, which is the paper's priority
rule (Section 4.2) by construction.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional

from .channels import parse_channel
from .errors import DefinitionError
from .events import Event
from .machine import Efsm, EfsmInstance, FiringResult, copy_state

__all__ = ["EfsmSystem", "ManualClock", "CASCADE_CAP"]

#: Consumes one macro-step may make.  A cascade with δs still pending after
#: this many is a δ cycle (a ping-pong, or a consume that sends more than
#: one δ) that would never quiesce: :meth:`EfsmSystem.inject` raises, and
#: the ``sync-unbounded`` rule of :mod:`repro.efsm.verify` explores to the
#: same depth.
CASCADE_CAP = 64


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
    """A set of interacting EFSM instances sharing globals."""

    #: One system per monitored call: ``__slots__`` keeps the per-call
    #: footprint at the attributes below (no instance dict for the cyclic
    #: GC to scan).  A firing is handed to ``on_result`` and returned by
    #: :meth:`inject`; the system itself retains none.
    __slots__ = (
        "clock_now", "timer_scheduler", "machines", "globals", "deliveries",
        "on_result", "on_quiet", "on_output",
    )

    def __init__(
        self,
        clock_now: Callable[[], float] = lambda: 0.0,
        timer_scheduler: Optional[Callable[[float, Callable[[], None]], Any]] = None,
    ):
        self.clock_now = clock_now
        self.timer_scheduler = timer_scheduler
        self.machines: Dict[str, EfsmInstance] = {}
        self.globals: Dict[str, Any] = {}
        #: Total firings ever made by this system, quiet ones included: the
        #: one firing counter, and the change version checkpoints and size
        #: memos key on.
        self.deliveries: int = 0
        #: Hook invoked for every firing result (the vids analysis engine).
        self.on_result: Optional[Callable[[FiringResult], None]] = None
        #: When set, a firing whose dispatch entry is not observable
        #: (:meth:`~repro.efsm.machine.Efsm.freeze`) calls this instead:
        #: it builds no result, reaches no ``on_result`` and is not
        #: returned.  None materialises every firing.
        self.on_quiet: Optional[Callable[[], Any]] = None
        #: Hook invoked for every output event ``c!event(x)`` —
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

    # -- execution -----------------------------------------------------------

    def inject(self, machine: str, event: Event) -> List[FiringResult]:
        """Deliver a data-packet event as one macro-step.

        The event fires, then every δ it sends is consumed, and every δ
        those firings send, breadth-first in the order they were sent,
        before this returns.  A δ on a channel whose receiver is not in
        this system goes to the environment: ``on_output`` sees it, no
        machine does.  Returns the firings this materialised.  Raises
        :class:`DefinitionError` once the step has consumed
        :data:`CASCADE_CAP` δs and more are pending (a δ cycle).
        """
        machines = self.machines
        instance = machines.get(machine)
        if instance is None:
            raise DefinitionError(f"unknown machine: {machine}")
        quiet = self.on_quiet
        fired: List[FiringResult] = []
        # The δs this step has sent, in order; ``consumed`` of them fired.
        sent: Optional[list] = None
        consumed = 0
        while True:
            result, outputs = instance.step(event, quiet)
            self.deliveries += 1
            if result is not None:
                fired.append(result)
                if self.on_result is not None:
                    self.on_result(result)
            if outputs:
                if sent is None:
                    sent = []
                for output in outputs:
                    if self.on_output is not None:
                        self.on_output(instance.definition.name, output)
                    receiver = machines.get(parse_channel(output.channel)[1])
                    if receiver is not None:
                        sent.append((receiver, output))
            if sent is None or consumed == len(sent):
                return fired
            if consumed == CASCADE_CAP:
                receiver, pending = sent[consumed]
                raise DefinitionError(
                    f"δ cascade did not quiesce within {CASCADE_CAP} "
                    f"consumes: {pending.name!r} still pending on "
                    f"{pending.channel!r} for {receiver.definition.name!r}")
            instance, event = sent[consumed]
            consumed += 1

    #: A timer expiry is the same macro-step; the second name keeps
    #: :meth:`inject` the entry point of data-packet events alone.
    _deliver_timer = inject

    # -- checkpoint / restore --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of the whole call's state.

        Captures the shared globals once, every machine's
        :meth:`~repro.efsm.machine.EfsmInstance.snapshot`, and the firing
        count — the change version, which must not restart from zero and
        climb back to a number an older snapshot was taken at.  No
        synchronization event is ever pending between macro-steps, so
        there is no queue to capture.
        """
        return {
            "globals": copy_state(self.globals),
            "machines": {name: instance.snapshot()
                         for name, instance in self.machines.items()},
            "deliveries": self.deliveries,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rebuild machine states and globals from a snapshot.

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
