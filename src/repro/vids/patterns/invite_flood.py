"""INVITE request flooding pattern (paper Section 6, Figure 4).

One machine instance is kept per *flood target* (the callee address-of-
record, falling back to the destination IP for requests that bypass the
proxy).  On the first INVITE the machine leaves INIT, starts the ``pck_
counter`` and timer T1; INVITEs within the window count against threshold
N; exceeding N is "a strong indication of a flooding attack".  When T1
expires the window resets: the tracker keeps T1 as the window's deadline.

Distinct calls (different Call-IDs) all count toward the same target — a
flood is many *calls*, not retransmissions of one (retransmissions carry the
same branch and are not re-counted).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Mapping, Optional, Tuple

from ...efsm.errors import DefinitionError
from ...efsm.events import TIMER_CHANNEL, Event
from ...efsm.guards import helper, start, v, when, write, x
from ...efsm.machine import Efsm, EfsmInstance, Variables

__all__ = ["build_invite_flood_machine", "InviteFloodTracker",
           "FLOOD_INIT", "FLOOD_COUNTING", "FLOOD_ATTACK"]

FLOOD_INIT = "INIT"
FLOOD_COUNTING = "Packet_Rcvd"
FLOOD_ATTACK = "ATTACK_Invite_Flood"

TIMER_T1 = "T1"


def count(counter: Any) -> int:
    return int(counter) + 1


def remember(branches: Tuple[str, ...], branch: str) -> Tuple[str, ...]:
    """``branches`` plus ``branch``, capped: the counter matters, the full
    retransmission-dedup history does not."""
    return (tuple(branches) + (branch,))[-64:]


_BRANCH, _SEEN = helper(str, x("branch", "")), v("seen_branches", ())
#: A branch not seen yet in this window counts.
COUNT = when(~_BRANCH.in_(_SEEN),
             write("seen_branches", helper(remember, _SEEN, _BRANCH)),
             write("pck_counter", helper(count, v("pck_counter", 0))))
RESET = (write("pck_counter", 0), write("seen_branches", ()))


def build_invite_flood_machine(threshold: int, window: float,
                               name: str = "invite_flood") -> Efsm:
    """The Figure-4 EFSM with threshold N and window T1."""
    machine = Efsm(name, FLOOD_INIT)
    machine.add_state(FLOOD_COUNTING)
    machine.add_state(FLOOD_ATTACK, attack=True)
    machine.declare(pck_counter=0, window_src="", seen_branches=())

    # A retransmission (a branch already counted) never floods; a new
    # branch does once it would take the counter past N.
    already_counted = x("branch", "").in_(v("seen_branches", ()))
    room_left = v("pck_counter", 0) <= threshold - 1

    first_invite = (write("pck_counter", 1),
                    write("window_src", helper(str, x("src_ip", ""))),
                    write("seen_branches", helper(remember, (), _BRANCH)),
                    start(TIMER_T1, window))

    machine.add_transition(FLOOD_INIT, "INVITE", FLOOD_COUNTING,
                           action=first_invite, label="first-invite")
    machine.add_transition(FLOOD_COUNTING, "INVITE", FLOOD_COUNTING,
                           predicate=already_counted | room_left, action=COUNT,
                           label="count")
    machine.add_transition(FLOOD_COUNTING, "INVITE", FLOOD_ATTACK,
                           predicate=~already_counted & ~room_left, action=COUNT,
                           attack=True, label="flood-detected")
    machine.add_transition(FLOOD_COUNTING, TIMER_T1, FLOOD_INIT,
                           channel=TIMER_CHANNEL, action=RESET,
                           label="window-expired")
    # After detection: keep absorbing the flood; re-arm when it subsides.
    machine.add_transition(FLOOD_ATTACK, "INVITE", FLOOD_ATTACK,
                           action=COUNT, label="flood-continues")
    machine.add_transition(FLOOD_ATTACK, TIMER_T1, FLOOD_INIT,
                           channel=TIMER_CHANNEL, action=RESET,
                           label="re-arm")
    return machine


class FloodWindow(EfsmInstance):
    """One target's Figure-4 instance, its T1 a deadline: ``start_timer``
    records it instead of scheduling a callback.  Delivery, snapshot and
    restore are :class:`~repro.efsm.machine.EfsmInstance`'s own."""

    __slots__ = ()

    def __init__(self, definition: Efsm, clock_now: Callable[[], float]):
        # Only what deliver, snapshot and the generated code read.
        self.definition, self.state = definition, definition.initial_state
        self.variables = Variables(definition.variables)
        self.clock_now, self._timers, self._timer_meta = clock_now, None, None

    def start_timer(self, name: str, delay: float,
                    args: Optional[Mapping[str, Any]] = None) -> None:
        self._timer_meta = {name: (self.clock_now() + delay,
                                   dict(args or {}))}

    def cancel_timer(self, name: str) -> None:
        if self._timer_meta:
            self._timer_meta.pop(name, None)

    @property
    def deadline(self) -> float:
        return self._timer_meta[TIMER_T1][0]


class InviteFloodTracker:
    """Keeps one :class:`FloodWindow` of a Figure-4 ``definition`` per
    flood target and feeds it INVITEs.

    Every T1 transition leads back to INIT, and an instance in INIT equals
    a fresh one, so a window is forgotten once its deadline has come —
    otherwise every callee and every *claimed* source ever seen would
    stay in memory and in each tracker checkpoint.  Windows all last T1,
    so they close in the order they opened: reading or feeding the table
    sweeps them off the front of ``_order``.
    """

    def __init__(self, definition: Efsm, clock_now: Callable[[], float],
                 on_attack: Optional[Callable[[str, Event], None]] = None):
        if {t.target for t in definition.transitions
                if t.channel == TIMER_CHANNEL} != {definition.initial_state}:
            raise DefinitionError(f"{definition.name}: T1 must lead back "
                                  f"to {definition.initial_state!r}")
        definition.freeze()
        self._definition = definition
        self.clock_now = clock_now
        self.on_attack = on_attack
        self._windows: Dict[str, FloodWindow] = {}
        #: ``(deadline, target, window)`` in the order the windows opened.
        self._order: Deque[Tuple[float, str, FloodWindow]] = deque()
        self._version = 0

    def expire(self) -> None:
        """Forget every window whose deadline has come: T1 has fired."""
        order, windows = self._order, self._windows
        now = self.clock_now() if order else None
        while order and order[0][0] <= now:
            _, target, window = order.popleft()
            if windows.get(target) is window:
                del windows[target]
                self._version += 1

    @property
    def machines(self) -> Dict[str, FloodWindow]:
        """The open windows by target."""
        self.expire()
        return self._windows

    @property
    def version(self) -> int:
        """Bumped on every change to the table or to a window in it (a
        window closing included); checkpoints reuse the previous tracker
        snapshot while it stands."""
        self.expire()
        return self._version

    def _open(self, target: str) -> FloodWindow:
        window = self._windows[target] = FloodWindow(self._definition,
                                                     self.clock_now)
        return window

    def observe_invite(self, target: str, event: Event) -> bool:
        """Feed one INVITE observation; returns True when a flood is flagged."""
        window = self.machines.get(target) or self._open(target)
        result = window.deliver(event)
        if result.from_state == FLOOD_INIT:
            self._order.append((window.deadline, target, window))
        self._version += 1
        entered_attack = result.attack and result.from_state != result.to_state
        if entered_attack and self.on_attack is not None:
            self.on_attack(target, event)
        return entered_attack

    def counter(self, target: str) -> int:
        window = self.machines.get(target)
        return int(window.variables["pck_counter"]) if window else 0

    # -- checkpoint / restore -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy: every open window, plus the change count."""
        self.expire()
        return {"machines": {target: window.snapshot()
                             for target, window in self._windows.items()},
                "version": self._version}

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rewind to a :meth:`snapshot`, in place: the windows opened since
        are dropped, restored ones close at their checkpointed deadlines."""
        self._windows.clear()
        self._order.clear()
        for target, machine in snapshot["machines"].items():
            window = self._open(target)
            window.restore(machine)
            self._order.append((window.deadline, target, window))
        self._version = snapshot["version"]
