"""INVITE request flooding pattern (paper Section 6, Figure 4).

One machine instance is kept per *flood target* (the callee address-of-
record, falling back to the destination IP for requests that bypass the
proxy).  On the first INVITE the machine leaves INIT, starts the ``pck_
counter`` and timer T1; INVITEs within the window count against threshold
N; exceeding N is "a strong indication of a flooding attack".  When T1
expires the window resets.

Distinct calls (different Call-IDs) all count toward the same target — a
flood is many *calls*, not retransmissions of one (retransmissions carry the
same branch and are not re-counted).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ...efsm.events import TIMER_CHANNEL, Event
from ...efsm.guards import helper, start, v, when, write, x
from ...efsm.machine import Efsm, EfsmInstance

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
    machine.validate()
    return machine


class InviteFloodTracker:
    """Keeps one instance of a Figure-4 ``definition`` per flood target
    and feeds it INVITEs."""

    def __init__(
        self,
        definition: Efsm,
        clock_now: Callable[[], float],
        timer_scheduler: Callable,
        on_attack: Optional[Callable[[str, Event], None]] = None,
    ):
        self._definition = definition
        self.clock_now = clock_now
        self.timer_scheduler = timer_scheduler
        self.on_attack = on_attack
        self.machines: dict = {}
        #: Bumped on every change to ``machines`` or to an instance in it;
        #: checkpoints reuse the previous tracker snapshot while it stands.
        self.version = 0

    def machine_for(self, target: str) -> EfsmInstance:
        instance = self.machines.get(target)
        if instance is None:
            instance = EfsmInstance(
                self._definition, clock_now=self.clock_now,
                timer_scheduler=self.timer_scheduler)
            instance.on_timer_event = partial(self._window_expired, target)
            self.machines[target] = instance
            self.version += 1
        return instance

    def _window_expired(self, target: str, event: Event) -> None:
        """T1 fired: back in INIT an instance (counter 0, no branches, no
        timer) equals a fresh one, so the table forgets the target —
        otherwise every callee and every *claimed* source ever seen stays
        in memory and in each tracker checkpoint."""
        instance = self.machines[target]
        instance.deliver(event)
        if instance.state == FLOOD_INIT:
            del self.machines[target]
        self.version += 1

    def observe_invite(self, target: str, event: Event) -> bool:
        """Feed one INVITE observation; returns True when a flood is flagged."""
        result = self.machine_for(target).deliver(event)
        self.version += 1
        entered_attack = result.attack and result.from_state != result.to_state
        if entered_attack and self.on_attack is not None:
            self.on_attack(target, event)
        return entered_attack

    def counter(self, target: str) -> int:
        instance = self.machines.get(target)
        if instance is None:
            return 0
        return int(instance.variables.get("pck_counter", 0))

    # -- checkpoint / restore -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy: every live window, plus the change count."""
        return {
            "machines": {target: instance.snapshot()
                         for target, instance in self.machines.items()},
            "version": self.version,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rewind to a :meth:`snapshot`, in place.

        The T1 timers of the windows being discarded are cancelled first:
        left running, one would fire for a target the restore removed, or
        close a later window of that target early.  Restored windows
        re-arm at their checkpointed deadlines.
        """
        for instance in self.machines.values():
            instance.cancel_all_timers()
        self.machines.clear()
        for target, machine in snapshot["machines"].items():
            self.machine_for(target).restore(machine)
        # Last: rebuilding the table above counted as changes.
        self.version = snapshot["version"]
