"""Standalone media-spamming pattern (paper Section 6, Figure 6).

The paper's Figure 6 runs directly on the RTP stream toward a destination D,
independent of call state: the first packet initializes the state-variable
vector, and each subsequent packet to the same D either self-loops (updating
``v.time_stamp``/``v.sequence_number``) or transitions to the Attack state
when ``x.time_stamp_{i+1} - v.time_stamp_i > Δt`` or
``x.sequence_number_{i+1} - v.sequence_number_i > Δn``.

Inside vids the same Δt/Δn rules are embedded in the per-call RTP machine
(where the negotiated session context is available); this standalone
tracker is used for *orphan* streams — RTP arriving at destinations with no
negotiated session — and doubles as the unsolicited-media detector.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ...efsm.events import Event
from ...efsm.guards import helper, truthy, v, write, x
from ...efsm.machine import Efsm, EfsmInstance
from .invite_flood import count

__all__ = ["build_media_spam_machine", "OrphanMediaTracker",
           "SPAM_INIT", "SPAM_COUNTING", "SPAM_ATTACK"]

SPAM_INIT = "INIT"
SPAM_COUNTING = "Packet_Rcvd"
SPAM_ATTACK = "ATTACK_Media_Spam"

_SEQ_MOD = 1 << 16
_TS_MOD = 1 << 32

#: Cap on tracked orphan destinations: every ``(ip, port)`` an attacker
#: sprays costs an instance here and a snapshot in each tracker checkpoint,
#: so past the cap the longest-idle destination is forgotten.
_MAX_ORPHAN_DESTINATIONS = 4096


def build_media_spam_machine(seq_gap: int, ts_gap: int,
                             name: str = "media_spam") -> Efsm:
    """The Figure-6 EFSM with thresholds Δn (seq) and Δt (timestamp)."""
    machine = Efsm(name, SPAM_INIT)
    machine.add_state(SPAM_COUNTING)
    machine.add_state(SPAM_ATTACK, attack=True)
    machine.declare(ssrc=0, sequence_number=0, time_stamp=0, packets=0)

    ssrc, seq, ts = x("ssrc", 0), x("seq", 0), x("ts", 0)
    update = (write("sequence_number", helper(int, seq)),
              write("time_stamp", helper(int, ts)))

    def is_spam(ssrc: Any, last_ssrc: Any, seq: Any, last_seq: Any,
                ts: Any, last_ts: Any) -> bool:
        if int(ssrc) != int(last_ssrc):
            return True
        return ((int(seq) - int(last_seq)) % _SEQ_MOD > seq_gap
                or (int(ts) - int(last_ts)) % _TS_MOD > ts_gap)

    machine.add_transition(
        SPAM_INIT, "RTP_PACKET", SPAM_COUNTING,
        action=(write("ssrc", helper(int, ssrc)),) + update
        + (write("packets", 1),), label="first-packet")
    # The gap arithmetic is modular, so it stays a named helper leaf.
    spam = truthy(helper(is_spam, ssrc, v("ssrc", 0), seq,
                         v("sequence_number", 0), ts, v("time_stamp", 0)))
    machine.add_transition(SPAM_COUNTING, "RTP_PACKET", SPAM_COUNTING,
                           predicate=~spam, label="in-profile",
                           action=update + (write("packets", helper(
                               count, v("packets", 0))),))
    machine.add_transition(SPAM_COUNTING, "RTP_PACKET", SPAM_ATTACK,
                           predicate=spam, attack=True, label="spam")
    machine.add_transition(SPAM_ATTACK, "RTP_PACKET", SPAM_ATTACK,
                           label="absorbed")
    return machine


class OrphanMediaTracker:
    """Watches RTP streams that match no negotiated session.

    Applies the Figure-6 ``definition`` per destination (S, D implicit in
    the stream), and raises an unsolicited-media signal once a destination has
    absorbed more than ``unsolicited_threshold`` orphan packets.
    """

    def __init__(
        self,
        definition: Efsm,
        unsolicited_threshold: int,
        clock_now: Callable[[], float],
        on_spam: Optional[Callable[[Tuple[str, int], Event], None]] = None,
        on_unsolicited: Optional[Callable[[Tuple[str, int], Event], None]] = None,
    ):
        self._definition = definition
        self.unsolicited_threshold = unsolicited_threshold
        self.clock_now = clock_now
        self.on_spam = on_spam
        self.on_unsolicited = on_unsolicited
        #: Least recently used first (``machine_for`` re-inserts).
        self.machines: Dict[Tuple[str, int], EfsmInstance] = {}
        self._unsolicited_flagged: set = set()
        #: Bumped on every change to the two tables above or to an instance
        #: in them; checkpoints reuse the previous tracker snapshot while it
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
        instance = self.machine_for(destination)
        result = instance.deliver(event)
        self.version += 1
        if (result.attack and result.from_state != result.to_state
                and self.on_spam is not None):
            self.on_spam(destination, event)
        packets = int(instance.variables.get("packets", 0))
        if (packets > self.unsolicited_threshold
                and destination not in self._unsolicited_flagged):
            self._unsolicited_flagged.add(destination)
            if self.on_unsolicited is not None:
                self.on_unsolicited(destination, event)

    def forget(self, destination: Tuple[str, int]) -> None:
        """Drop a destination's tracking state."""
        self.machines.pop(destination, None)
        self._unsolicited_flagged.discard(destination)
        self.version += 1

    # -- checkpoint / restore -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy: every tracked stream (least recently used
        first), the flagged destinations, and the change count."""
        return {
            "machines": {destination: instance.snapshot()
                         for destination, instance in self.machines.items()},
            "unsolicited_flagged": frozenset(self._unsolicited_flagged),
            "version": self.version,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rewind to a :meth:`snapshot`, in place."""
        self.machines.clear()
        for destination, machine in snapshot["machines"].items():
            self.machine_for(destination).restore(machine)
        self._unsolicited_flagged.clear()
        self._unsolicited_flagged.update(snapshot["unsolicited_flagged"])
        # Last: rebuilding the tables above counted as changes.
        self.version = snapshot["version"]
