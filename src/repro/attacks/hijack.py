"""Call hijacking attack (paper Section 3.1).

"In a call hijacking attack, a new INVITE request could be send within a
pre-existing dialog."  The attacker injects a re-INVITE carrying the
sniffed dialog identifiers and an SDP that redirects the victim's media to
the attacker — from the attacker's own network address, which is what the
vids SIP machine's participant check catches (``ATTACK_Hijack``).
"""

from __future__ import annotations

from ..netsim.address import Endpoint
from ..sip.sdp import SDP_CONTENT_TYPE, SessionDescription
from .base import WaitingAttack, forge_in_dialog

__all__ = ["CallHijackAttack"]


class CallHijackAttack(WaitingAttack):
    """Redirect an established call's media with an in-dialog INVITE."""

    name = "call-hijack"

    def __init__(self, start_time: float, media_port: int = 55_000,
                 max_wait: float = 600.0):
        super().__init__(start_time, max_wait)
        self.media_port = media_port

    def strike(self, sim, host, pair) -> None:
        self.victim_call_id = pair.callee_call.call_id
        sdp = SessionDescription.for_audio(host.ip, self.media_port,
                                           18, "G729")
        reinvite = forge_in_dialog(sim, pair.callee_call.dialog, "INVITE",
                                   host.ip, sdp.serialize())
        reinvite.set("Contact", f"<sip:hijack@{host.ip}:5060>")
        reinvite.set("Content-Type", SDP_CONTENT_TYPE)
        victim = Endpoint(pair.callee_phone.host.ip, 5060)
        host.send_udp(victim, reinvite.serialize(), 5060)
        self.log(sim.now, f"hijack re-INVITE -> {victim} "
                          f"call={self.victim_call_id}")
