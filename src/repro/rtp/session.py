"""RTP sender and receiver sessions on simulated hosts.

A sender paces packets at the codec's packetization interval, models G.729's
speech-activity detection with an on/off talk-spurt process (ITU-T P.59-like
exponential talkspurt/pause durations), and stamps sequence numbers and
timestamps exactly as a real stack would.  A receiver validates, tracks loss
from sequence gaps, and feeds the RFC 3550 jitter filter plus true
end-to-end delay statistics (the simulator knows each packet's send time).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..netsim.address import Endpoint
from ..netsim.engine import Timer
from ..netsim.node import Host
from ..netsim.packet import Datagram
from .codecs import Codec, G729
from .jitter import DelayStats, JitterEstimator
from .packet import RtpPacket, RtpParseError

__all__ = ["RtpSender", "RtpReceiver", "TalkSpurtModel",
           "MEAN_TALKSPURT_S", "MEAN_PAUSE_S"]

#: ITU-T P.59 conversational speech: mean talkspurt ~1.0 s, pause ~1.35 s.
MEAN_TALKSPURT_S = 1.004
MEAN_PAUSE_S = 1.587


class TalkSpurtModel:
    """On/off speech activity process for codecs with VAD enabled.

    Phase durations are exponential, with pauses clamped at ``max_pause`` —
    conversational silence beyond a few seconds is rare and an unbounded
    tail would be indistinguishable from a dead stream.
    """

    def __init__(self, rng: random.Random,
                 mean_talkspurt: float = MEAN_TALKSPURT_S,
                 mean_pause: float = MEAN_PAUSE_S,
                 max_pause: float = 6.0):
        self._rng = rng
        self.mean_talkspurt = mean_talkspurt
        self.mean_pause = mean_pause
        self.max_pause = max_pause
        self.talking = True
        self._phase_ends_at: Optional[float] = None

    def is_talking(self, now: float) -> bool:
        """Advance the process to ``now`` and report speech activity."""
        if self._phase_ends_at is None:
            self._phase_ends_at = now + self._draw()
        while now >= self._phase_ends_at:
            self.talking = not self.talking
            self._phase_ends_at += self._draw()
        return self.talking

    def _draw(self) -> float:
        if self.talking:
            return self._rng.expovariate(1.0 / self.mean_talkspurt)
        return min(self._rng.expovariate(1.0 / self.mean_pause),
                   self.max_pause)


class RtpSender:
    """Streams one direction of a voice call."""

    def __init__(
        self,
        host: Host,
        local_port: int,
        remote: Endpoint,
        codec: Codec = G729,
        ptime_ms: float = 20.0,
        ssrc: Optional[int] = None,
        rng: Optional[random.Random] = None,
        vad: bool = True,
    ):
        self.host = host
        self.sim = host.sim
        self.local_port = local_port
        self.remote = remote
        self.codec = codec
        self.ptime_ms = ptime_ms
        #: Seconds between packets: the packetization interval.
        self.interval = ptime_ms / 1000.0
        rng = rng or random.Random(0)
        self.ssrc = ssrc if ssrc is not None else rng.getrandbits(32)
        self.sequence_number = rng.getrandbits(16)
        self.timestamp = rng.getrandbits(32)
        self.vad = TalkSpurtModel(rng) if vad else None
        self.packets_sent = 0
        self._timer: Optional[Timer] = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # First packet leaves after one packetization interval plus the
        # codec's algorithmic delay.
        delay = self.interval + self.codec.encoding_delay()
        self._timer = self.sim.schedule(delay, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        sim, codec = self.sim, self.codec
        talking = self.vad.is_talking(sim.now) if self.vad is not None else True
        # Timestamps advance with wall time even across silence (RFC 3550).
        self.timestamp = (self.timestamp +
                          codec.timestamp_increment(self.ptime_ms)) % (1 << 32)
        if talking:
            packet = RtpPacket(
                payload_type=codec.payload_type,
                sequence_number=self.sequence_number,
                timestamp=self.timestamp,
                ssrc=self.ssrc,
                payload=bytes(codec.payload_bytes(self.ptime_ms)),
            )
            self.sequence_number = (self.sequence_number + 1) % (1 << 16)
            self.packets_sent += 1
            self.host.send_udp(self.remote, packet.serialize(), self.local_port)
        self._timer = sim.schedule(self.interval, self._tick)


class RtpReceiver:
    """Receives one direction of a voice call and keeps QoS statistics."""

    def __init__(
        self,
        host: Host,
        local_port: int,
        codec: Codec = G729,
        on_packet: Optional[Callable[[RtpPacket, Datagram], None]] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.local_port = local_port
        self.codec = codec
        self.on_packet = on_packet
        self.jitter = JitterEstimator(codec.clock_rate)
        self.delay_stats = DelayStats()
        self.packets_received = 0
        self.parse_errors = 0
        self.out_of_order = 0
        self.lost_estimate = 0
        self._expected_seq: Optional[int] = None
        self._ssrc: Optional[int] = None
        host.bind(local_port, self._on_datagram)

    def close(self) -> None:
        self.host.unbind(self.local_port)

    def _on_datagram(self, datagram: Datagram) -> None:
        try:
            packet = RtpPacket.parse(datagram.payload)
        except RtpParseError:
            self.parse_errors += 1
            return
        now = self.sim.now
        self.packets_received += 1
        if self._ssrc is None:
            self._ssrc = packet.ssrc
        self.delay_stats.add(now - datagram.created_at)
        self.jitter.update(now, packet.timestamp)
        seq = packet.sequence_number
        if self._expected_seq is not None:
            gap = (seq - self._expected_seq) % (1 << 16)
            if gap == 0:
                pass
            elif gap < (1 << 15):
                self.lost_estimate += gap
            else:
                self.out_of_order += 1
        self._expected_seq = (seq + 1) % (1 << 16)
        if self.on_packet is not None:
            self.on_packet(packet, datagram)
