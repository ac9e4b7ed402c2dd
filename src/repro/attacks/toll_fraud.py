"""Billing / toll-fraud attack (paper Section 3.1).

"Billing and toll fraud can be realized if one end sends a BYE message to
stop billing but continues sending RTP packets."

The fraudster is the *caller itself*: the injector makes the caller's host
emit a genuine BYE (correct dialog identifiers, its real source address) to
the callee while leaving the caller's RTP sender running.  The callee —
and any billing system keyed on signaling — considers the call over; the
media keeps flowing.  vids catches it cross-protocol: the SIP machine's BYE
transition arms the RTP machine's timer T, and packets arriving after
RTP_Close from the BYE sender's own address are attributed as toll fraud.
"""

from __future__ import annotations

from ..netsim.address import Endpoint
from .base import EstablishedPair, WaitingAttack, forge_in_dialog

__all__ = ["TollFraudAttack"]


class TollFraudAttack(WaitingAttack):
    """Stop billing with a BYE but keep the media flowing."""

    name = "toll-fraud"

    def __init__(self, start_time: float, extra_media_time: float = 30.0,
                 max_wait: float = 600.0):
        super().__init__(start_time, max_wait)
        #: How long the fraudulent media keeps flowing after the BYE.
        self.extra_media_time = extra_media_time

    def strike(self, sim, host, pair: EstablishedPair) -> None:
        self.victim_call_id = pair.callee_call.call_id
        caller_host = pair.caller_phone.host
        bye = forge_in_dialog(sim, pair.callee_call.dialog, "BYE",
                              caller_host.ip)
        victim = Endpoint(pair.callee_phone.host.ip, 5060)
        # Sent from the caller's own host: a genuine, billable-entity BYE.
        caller_host.send_udp(victim, bye.serialize(), 5061)
        self.log(sim.now, f"fraudulent BYE -> {victim} "
                          f"call={self.victim_call_id}")

        # The fraudster's endpoint deliberately ignores teardown: neuter the
        # sender's stop so the media keeps flowing for the fraud window even
        # if the phone's normal call logic tries to stop it.
        media = pair.media()
        if media is not None:
            sender = media[0]
            real_stop = sender.stop
            sender.stop = lambda: None   # compromised endpoint
            sim.schedule(self.extra_media_time, real_stop)
