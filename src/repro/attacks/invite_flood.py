"""INVITE request flooding attack (paper Section 3.1).

"A number of IP phones together may launch an INVITE flooding attack to
overwhelm a single telephone terminal within a short duration of time."

The injector sends a burst of well-formed INVITEs — distinct Call-IDs and
branches, plausible SDP — at one callee's address-of-record through the
victim domain's proxy, optionally rotating spoofed source addresses to
emulate the distributed variant.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..netsim.engine import Simulator
from ..sip.message import SipRequest
from ..telephony.enterprise import EnterpriseTestbed
from .base import Attack, attacker_host, burst, fresh_invite

__all__ = ["InviteFloodAttack"]


class InviteFloodAttack(Attack):
    """Flood ``target_aor`` with INVITEs."""

    name = "invite-flood"

    def __init__(
        self,
        start_time: float,
        target_aor: str = "b1@b.example.com",
        count: int = 30,
        interval: float = 0.02,
        spoof_sources: int = 0,
    ):
        super().__init__(start_time)
        self.target_aor = target_aor
        self.count = count
        self.interval = interval
        self.spoof_sources = spoof_sources

    def install(self, testbed: EnterpriseTestbed) -> None:
        host = attacker_host(testbed)
        sim = testbed.sim
        proxy = testbed.proxy_b.endpoint

        def send_one(index: int) -> None:
            callee, src_ip, request = self.forge(sim, host.ip, index)
            host.send_udp(proxy, request.serialize(), 5060, src_ip=src_ip)
            claimed = f" (claimed source {src_ip})" if src_ip else ""
            self.log(sim.now, f"INVITE #{index} -> {callee}{claimed}")

        burst(sim, max(self.start_time, sim.now), self.count, self.interval,
              send_one)

    def forge(self, sim: Simulator, attacker_ip: str,
              index: int) -> Tuple[str, Optional[str], SipRequest]:
        """INVITE ``index`` of the burst: its callee, spoofed source, request."""
        unique = sim.next_id("invite-flood")
        src_ip = (f"172.16.{index % self.spoof_sources}.99"
                  if self.spoof_sources else None)
        return self.target_aor, src_ip, fresh_invite(
            sim, self.target_aor, attacker_ip, 40_000 + 2 * index,
            f"flood{unique}@evil.example.net",
            f"flood{unique}@{attacker_ip}:5060")
