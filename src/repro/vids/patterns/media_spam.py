"""Standalone media-spamming pattern (paper Section 6, Figure 6).

The paper's Figure 6 runs directly on the RTP stream toward a destination D,
independent of call state: the first packet initializes the state-variable
vector, and each subsequent packet to the same D either self-loops (updating
``v.time_stamp``/``v.sequence_number``) or transitions to the Attack state
when ``x.time_stamp_{i+1} - v.time_stamp_i > Δt`` or
``x.sequence_number_{i+1} - v.sequence_number_i > Δn``.

Inside vids the same Δt/Δn rules are embedded in the per-call RTP machine
(where the negotiated session context is available); this standalone
machine watches *orphan* streams — RTP arriving at destinations with no
negotiated session — and doubles as the unsolicited-media detector: the
in-profile packet that takes its count past a threshold enters
``ATTACK_Unsolicited_Media``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ...efsm.events import Event
from ...efsm.guards import helper, truthy, v, write, x
from ...efsm.machine import Efsm, EfsmInstance
from .invite_flood import count

__all__ = ["build_media_spam_machine", "OrphanMediaTracker",
           "SPAM_INIT", "SPAM_COUNTING", "SPAM_UNSOLICITED", "SPAM_ATTACK"]

SPAM_INIT = "INIT"
SPAM_COUNTING = "Packet_Rcvd"
SPAM_UNSOLICITED = "ATTACK_Unsolicited_Media"
SPAM_ATTACK = "ATTACK_Media_Spam"

_SEQ_MOD = 1 << 16
_TS_MOD = 1 << 32

#: Cap on tracked orphan destinations: every ``(ip, port)`` an attacker
#: sprays costs an instance here and a snapshot in each tracker checkpoint,
#: so past the cap the longest-idle destination is forgotten.
_MAX_ORPHAN_DESTINATIONS = 4096


def build_media_spam_machine(seq_gap: int, ts_gap: int,
                             unsolicited_threshold: int,
                             name: str = "media_spam") -> Efsm:
    """The Figure-6 EFSM with thresholds Δn (seq) and Δt (timestamp).

    Every in-profile packet counts; the one that takes ``packets`` past
    ``unsolicited_threshold`` enters ``ATTACK_Unsolicited_Media``, which
    keeps counting and still leads on to ``ATTACK_Media_Spam``.
    """
    machine = Efsm(name, SPAM_INIT)
    machine.add_state(SPAM_UNSOLICITED, attack=True)
    machine.add_state(SPAM_ATTACK, attack=True)
    machine.declare(ssrc=0, sequence_number=0, time_stamp=0, packets=0)

    ssrc, seq, ts = x("ssrc", 0), x("seq", 0), x("ts", 0)
    update = (write("sequence_number", helper(int, seq)),
              write("time_stamp", helper(int, ts)))
    counted = update + (write("packets", helper(count, v("packets", 0))),)

    def is_spam(ssrc: Any, last_ssrc: Any, seq: Any, last_seq: Any,
                ts: Any, last_ts: Any) -> bool:
        if int(ssrc) != int(last_ssrc):
            return True
        return ((int(seq) - int(last_seq)) % _SEQ_MOD > seq_gap
                or (int(ts) - int(last_ts)) % _TS_MOD > ts_gap)

    # The gap arithmetic is modular, so it stays a named helper leaf.
    spam = truthy(helper(is_spam, ssrc, v("ssrc", 0), seq,
                         v("sequence_number", 0), ts, v("time_stamp", 0)))
    # The first packet is the first counted: past a threshold of 0 already.
    first = SPAM_COUNTING if unsolicited_threshold > 0 else SPAM_UNSOLICITED
    machine.add_state(first)
    machine.add_transition(
        SPAM_INIT, "RTP_PACKET", first,
        action=(write("ssrc", helper(int, ssrc)),) + update
        + (write("packets", 1),), label="first-packet")
    if first == SPAM_COUNTING:
        solicited = v("packets", 0) < unsolicited_threshold
        machine.add_transition(SPAM_COUNTING, "RTP_PACKET", SPAM_COUNTING,
                               predicate=~spam & solicited, action=counted,
                               label="in-profile")
        machine.add_transition(SPAM_COUNTING, "RTP_PACKET", SPAM_UNSOLICITED,
                               predicate=~spam & ~solicited, action=counted,
                               label="unsolicited")
        machine.add_transition(SPAM_COUNTING, "RTP_PACKET", SPAM_ATTACK,
                               predicate=spam, label="spam")
    machine.add_transition(SPAM_UNSOLICITED, "RTP_PACKET", SPAM_UNSOLICITED,
                           predicate=~spam, action=counted, label="in-profile")
    machine.add_transition(SPAM_UNSOLICITED, "RTP_PACKET", SPAM_ATTACK,
                           predicate=spam, label="spam")
    machine.add_transition(SPAM_ATTACK, "RTP_PACKET", SPAM_ATTACK,
                           label="absorbed")
    return machine


class OrphanMediaTracker:
    """Watches RTP streams that match no negotiated session.

    Applies the Figure-6 ``definition`` per destination (S, D implicit in
    the stream); ``on_attack(destination, event, state)`` hears each entry
    into one of its attack states.
    """

    def __init__(
        self,
        definition: Efsm,
        clock_now: Callable[[], float],
        on_attack: Optional[Callable[[Tuple[str, int], Event, str],
                                     None]] = None,
    ):
        self._definition = definition
        self.clock_now = clock_now
        self.on_attack = on_attack
        #: Least recently used first (``machine_for`` re-inserts).
        self.machines: Dict[Tuple[str, int], EfsmInstance] = {}
        #: Bumped on every change to the table above or to an instance in
        #: it; checkpoints reuse the previous tracker snapshot while it
        #: stands.
        self.version = 0

    def machine_for(self, destination: Tuple[str, int]) -> EfsmInstance:
        instance = self.machines.pop(destination, None)
        if instance is None:
            if len(self.machines) >= _MAX_ORPHAN_DESTINATIONS:
                self.forget(next(iter(self.machines)))
            instance = EfsmInstance(self._definition,
                                    clock_now=self.clock_now)
            self.version += 1
        self.machines[destination] = instance
        return instance

    def observe(self, destination: Tuple[str, int], event: Event) -> None:
        result = self.machine_for(destination).deliver(event)
        self.version += 1
        if (result.attack and result.from_state != result.to_state
                and self.on_attack is not None):
            self.on_attack(destination, event, result.to_state)

    def forget(self, destination: Tuple[str, int]) -> None:
        """Drop a destination's tracking state."""
        self.machines.pop(destination, None)
        self.version += 1

    # -- checkpoint / restore -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy: every tracked stream (least recently used
        first), and the change count."""
        return {
            "machines": {destination: instance.snapshot()
                         for destination, instance in self.machines.items()},
            "version": self.version,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rewind to a :meth:`snapshot`, in place."""
        self.machines.clear()
        for destination, machine in snapshot["machines"].items():
            self.machine_for(destination).restore(machine)
        # Last: rebuilding the table above counted as changes.
        self.version = snapshot["version"]
