"""RTP flooding / codec-change attacks (paper Section 3.2).

"The calling party should transmit the media stream according to the
negotiated media encoding scheme.  Changing the encoding scheme or flooding
with RTP packets not only deteriorates the perceived quality of service but
also may cause phones dysfunctional and reboot operations."

The misbehaving party here is a *compromised caller*: the injector hijacks
an established call's sending side, silences the legitimate sender, and
either transmits far above the negotiated packet rate (``mode="flood"``) or
switches to an unnegotiated payload type (``mode="codec"``).
"""

from __future__ import annotations

from .base import WaitingAttack, burst, forged_rtp

__all__ = ["RtpFloodAttack"]


class RtpFloodAttack(WaitingAttack):
    """Flood the callee with media from a compromised caller endpoint."""

    name = "rtp-flood"

    def __init__(
        self,
        start_time: float,
        mode: str = "flood",
        rate_pps: float = 500.0,
        duration: float = 2.0,
        rogue_payload_type: int = 0,     # PCMU instead of negotiated G.729
        max_wait: float = 600.0,
    ):
        if mode not in ("flood", "codec"):
            raise ValueError(f"unknown mode: {mode!r}")
        super().__init__(start_time, max_wait)
        self.mode = mode
        self.rate_pps = rate_pps
        self.duration = duration
        self.rogue_payload_type = rogue_payload_type

    def strike(self, sim, host, pair) -> None:
        self.victim_call_id = pair.callee_call.call_id
        media = pair.media()
        if media is None:
            return
        sender, victim = media
        # The compromised endpoint abandons well-behaved pacing.
        sender.stop()
        caller_host = pair.caller_phone.host
        ssrc = sender.ssrc
        seq = sender.sequence_number
        ts = sender.timestamp

        if self.mode == "codec":
            payload_type = self.rogue_payload_type
            interval = sender.interval
            count = int(self.duration / interval)
        else:
            payload_type = sender.codec.payload_type
            interval = 1.0 / self.rate_pps
            count = int(self.duration * self.rate_pps)

        def send(index: int) -> None:
            caller_host.send_udp(
                victim, forged_rtp(payload_type, ssrc, seq, ts, index),
                sender.local_port)

        burst(sim, sim.now, count, interval, send)
        self.log(sim.now, f"{self.mode} burst ({count} pkts) -> {victim} "
                          f"call={self.victim_call_id}")
