"""BYE denial-of-service and toll-fraud attacks (paper Sections 3.1 and 6).

"The BYE attack aborts an established call between UAs ... suddenly
malicious UA-C sends a BYE message to either UAs.  The receiving UA will
prematurely teardown the established call assuming that it is requested by
the partner UA."

Two variants, selected by ``spoof``:

- ``"none"`` — UA-C sends the BYE from its own address.  The victim still
  tears the call down (no authentication), and vids flags the BYE directly:
  its source is outside the participant set (``ATTACK_Bye_DoS`` in the SIP
  machine).
- ``"peer"`` — the BYE spoofs the victim's *partner* address.  To vids the
  teardown looks legitimate; detection comes from the Figure-5 cross-
  protocol interaction: the partner, unaware, keeps streaming RTP after
  timer T expires, and packets arriving in RTP_Close raise the alert.
  (Because the continuing media comes from the very address the BYE was
  spoofed as, the attribution heuristic reports it as toll-fraud-consistent
  — on the wire the two attacks are the same observable; see
  :mod:`repro.attacks.toll_fraud`.)

The injector reads the dialog identifiers from the victim's call state, the
simulation stand-in for an attacker who sniffed the signaling.
"""

from __future__ import annotations

from ..netsim.address import Endpoint
from .base import EstablishedPair, WaitingAttack, forge_in_dialog

__all__ = ["ByeTeardownAttack"]


class ByeTeardownAttack(WaitingAttack):
    """Tear down an established call with a forged BYE."""

    name = "bye-teardown"

    def __init__(self, start_time: float, spoof: str = "peer",
                 max_wait: float = 600.0):
        if spoof not in ("none", "peer"):
            raise ValueError(f"unknown spoof mode: {spoof!r}")
        super().__init__(start_time, max_wait)
        self.spoof = spoof

    def strike(self, sim, host, pair: EstablishedPair) -> None:
        self.victim_call_id = pair.callee_call.call_id
        if self.spoof == "none":
            via_host, src_ip = host.ip, None
        else:
            # Victim = callee; spoof its partner (the caller).
            via_host = src_ip = pair.caller_phone.host.ip
        bye = forge_in_dialog(sim, pair.callee_call.dialog, "BYE", via_host)
        victim = Endpoint(pair.callee_phone.host.ip, 5060)
        host.send_udp(victim, bye.serialize(), 5060, src_ip=src_ip)
        self.log(sim.now, f"forged BYE ({self.spoof}) -> {victim} "
                          f"call={self.victim_call_id}")
