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
from ..sip.useragent import cancel_for
from ..telephony.enterprise import EnterpriseTestbed
from .base import WaitingAttack

__all__ = ["CancelDosAttack"]


class CancelDosAttack(WaitingAttack):
    """Kill a pending call attempt with a forged CANCEL."""

    name = "cancel-dos"
    retry_interval = 0.25

    def __init__(self, start_time: float, spoof_source: bool = False,
                 max_wait: float = 600.0):
        super().__init__(start_time, max_wait)
        self.spoof_source = spoof_source

    def find(self, testbed: EnterpriseTestbed):
        for phone in testbed.phones_b:
            for call in phone.ua.calls.values():
                if call.state in ("incoming", "ringing") \
                        and not call.is_caller and call.invite_request:
                    return phone, call
        return None

    def strike(self, sim, host, target) -> None:
        phone, call = target
        self.victim_call_id = call.call_id
        invite = call.invite_request
        # To evade the perimeter IDS the spoofed source must match an address
        # the IDS saw on the INVITE path *outside* the enterprise — i.e. the
        # remote domain's proxy (the Via below the local proxy's), not the
        # local proxy the UAS sees as its previous hop.
        src_ip: Optional[str] = None
        if self.spoof_source:
            vias = invite.vias
            src_ip = vias[1].host if len(vias) > 1 else vias[0].host
        victim = Endpoint(phone.host.ip, 5060)
        # On-path sniffer: the CANCEL mirrors the INVITE's transaction
        # identifiers, so the victim's transaction layer matches it.
        host.send_udp(victim, cancel_for(invite).serialize(), 5060,
                      src_ip=src_ip)
        self.log(sim.now, f"forged CANCEL -> {victim} "
                          f"call={self.victim_call_id} spoof={self.spoof_source}")
