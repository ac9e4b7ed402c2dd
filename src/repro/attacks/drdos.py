"""Distributed Reflection DoS via the SIP proxy (paper Section 3.1).

"If spoofed requests are sent to a large number of SIP proxy servers (i.e.
reflectors) on the Internet with the victim's IP address as the source of
the requester, the victim will be swamped with the subsequent response
messages, thereby causing a DRDoS attack."

From this enterprise's perspective the local proxy is one of the
reflectors: a burst of INVITEs arrives with the *victim's* spoofed source
address, fanned out across many different callees so no single callee's
Figure-4 counter trips.  The per-source flood machine catches the fan-out
and raises a reflection alert naming the claimed source (the victim).
"""

from __future__ import annotations

from .base import fresh_invite
from .invite_flood import InviteFloodAttack

__all__ = ["DrdosReflectionAttack"]


class DrdosReflectionAttack(InviteFloodAttack):
    """Use the enterprise proxy as a reflector against ``victim_ip``."""

    name = "drdos-reflection"

    def __init__(
        self,
        start_time: float,
        victim_ip: str = "198.51.100.7",
        count: int = 30,
        interval: float = 0.02,
        callees: int = 10,
    ):
        super().__init__(start_time, count=count, interval=interval)
        self.victim_ip = victim_ip
        self.callees = callees

    def forge(self, sim, attacker_ip, index):
        # The whole point: the source is the victim, so the proxy's
        # responses (and the callees' ringing) bounce at the victim.
        unique = sim.next_id("drdos")
        callee = f"b{(index % self.callees) + 1}@b.example.com"
        return callee, self.victim_ip, fresh_invite(
            sim, callee, self.victim_ip, 30_000 + 2 * index,
            f"victim{unique}@{self.victim_ip}",
            f"victim@{self.victim_ip}:5060")
