"""Softphones: SIP user agents with RTP media on simulated hosts.

A :class:`SoftPhone` is the testbed's "generic Windows PC acting as a SIP
UA" (Section 7.1): it registers with its domain proxy, places calls with an
SDP offer, rings and answers incoming calls after human-scale delays, and
streams G.729 voice (10 ms frames, VAD on) for the call's duration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..netsim.address import Endpoint
from ..netsim.node import Host
from ..rtp.codecs import Codec, G729
from ..rtp.reports import DEFAULT_RTCP_INTERVAL, RtcpReporter
from ..rtp.session import RtpReceiver, RtpSender
from ..sip.sdp import SessionDescription
from ..sip.timers import DEFAULT_TIMERS, TimerTable
from ..sip.uri import SipUri
from ..sip.useragent import Call, UserAgent

__all__ = ["SoftPhone", "CallRecordStats", "PhoneProfile"]

#: First RTP port a phone allocates; each concurrent call gets port + 2*k.
RTP_PORT_BASE = 20_000


@dataclass
class PhoneProfile:
    """Behavioural knobs of a phone."""

    codec: Codec = G729
    ptime_ms: float = 20.0
    #: Seconds between INVITE receipt and sending 180 Ringing.
    ring_delay: float = 0.05
    #: (min, max) seconds the simulated user takes to pick up.
    answer_delay: tuple = (1.0, 3.0)
    #: Speech-activity detection (the testbed enables it for G.729).
    vad: bool = True
    #: Periodic RTCP sender/receiver reports on RTP port + 1.
    rtcp: bool = True
    rtcp_interval: float = DEFAULT_RTCP_INTERVAL


@dataclass
class CallRecordStats:
    """Everything the scenario collector keeps about one finished call leg."""

    call_id: str
    caller: str
    callee: str
    is_caller_side: bool
    placed_at: float
    setup_delay: Optional[float] = None
    established_at: Optional[float] = None
    ended_at: Optional[float] = None
    end_reason: Optional[str] = None
    final_state: Optional[str] = None
    rtp_packets_received: int = 0
    rtp_mean_delay: float = 0.0
    rtp_max_delay: float = 0.0
    rtp_delay_variation: float = 0.0
    rtp_jitter: float = 0.0
    rtp_lost: int = 0

    @property
    def answered(self) -> bool:
        return self.established_at is not None


class _MediaSession:
    """Sender + receiver pair for one call leg."""

    def __init__(self, phone: "SoftPhone", local_port: int):
        self.phone = phone
        self.local_port = local_port
        self.receiver = RtpReceiver(phone.host, local_port,
                                    codec=phone.profile.codec)
        self.sender: Optional[RtpSender] = None
        self.rtcp: Optional[RtcpReporter] = None

    def start_sending(self, remote: Endpoint, rng: random.Random) -> None:
        if self.sender is not None:
            return
        self.sender = RtpSender(
            self.phone.host,
            self.local_port,
            remote,
            codec=self.phone.profile.codec,
            ptime_ms=self.phone.profile.ptime_ms,
            rng=rng,
            vad=self.phone.profile.vad,
        )
        self.sender.start()
        if self.phone.profile.rtcp:
            self.rtcp = RtcpReporter(
                self.phone.host, self.local_port, remote,
                sender=self.sender, receiver=self.receiver,
                interval=self.phone.profile.rtcp_interval)
            self.rtcp.start()

    def stop(self) -> None:
        if self.sender is not None:
            self.sender.stop()
        if self.rtcp is not None:
            self.rtcp.stop()
        # Leave the receiver bound briefly for in-flight packets, then close.
        self.phone.host.sim.schedule(1.0, self._close_receiver)

    def _close_receiver(self) -> None:
        if self.phone.host.is_bound(self.local_port):
            self.receiver.close()
        if self.rtcp is not None:
            self.rtcp.close()


class SoftPhone:
    """A SIP phone with media, attached to one simulated host."""

    def __init__(
        self,
        host: Host,
        aor: str,
        outbound_proxy: Endpoint,
        rng: Optional[random.Random] = None,
        profile: Optional[PhoneProfile] = None,
        timers: TimerTable = DEFAULT_TIMERS,
    ):
        self.host = host
        self.sim = host.sim
        self.profile = profile or PhoneProfile()
        self.rng = rng or random.Random(0)
        self.ua = UserAgent(host, aor, outbound_proxy, timers=timers)
        self.ua.on_incoming_call = self._on_incoming_call
        self._next_port = RTP_PORT_BASE
        self._media: Dict[str, _MediaSession] = {}   # call-id -> session
        self.stats: List[CallRecordStats] = []
        #: Hook fired with CallRecordStats when a call leg finishes.
        self.on_call_finished: Optional[Callable[[CallRecordStats], None]] = None
        #: When False, incoming calls are rejected with 486 Busy Here.
        self.accept_calls = True

    @property
    def aor(self) -> SipUri:
        return self.ua.aor

    def register(self, on_done: Optional[Callable[[bool], None]] = None) -> None:
        self.ua.register(on_done=on_done)

    # -- outgoing -------------------------------------------------------------

    def place_call(self, callee_aor: str, duration: float) -> Call:
        """Call ``callee_aor`` and hang up ``duration`` seconds after answer."""
        port = self._allocate_port()
        sdp = SessionDescription.for_audio(
            self.host.ip, port,
            self.profile.codec.payload_type, self.profile.codec.name,
            clock_rate=self.profile.codec.clock_rate,
            ptime_ms=int(self.profile.ptime_ms),
        )
        call = self.ua.invite(callee_aor, sdp)
        media = _MediaSession(self, port)
        self._media[call.call_id] = media
        record = CallRecordStats(
            call_id=call.call_id,
            caller=str(self.aor.address_of_record),
            callee=callee_aor.replace("sip:", ""),
            is_caller_side=True,
            placed_at=self.sim.now,
        )

        def on_established(c: Call) -> None:
            record.established_at = self.sim.now
            record.setup_delay = c.setup_delay
            self._start_media(c, media)
            self.sim.schedule(duration, c.hangup)

        def on_terminated(c: Call, reason: str) -> None:
            record.setup_delay = c.setup_delay
            self._finish(c, record, media, reason)

        call.on_established = on_established
        call.on_terminated = on_terminated
        return call

    # -- incoming ------------------------------------------------------------

    def _on_incoming_call(self, call: Call) -> None:
        if not self.accept_calls:
            call.reject(486)
            return
        port = self._allocate_port()
        media = _MediaSession(self, port)
        self._media[call.call_id] = media
        record = CallRecordStats(
            call_id=call.call_id,
            caller=(call.invite_request.from_.uri.address_of_record
                    if call.invite_request and call.invite_request.from_
                    else "?"),
            callee=str(self.aor.address_of_record),
            is_caller_side=False,
            placed_at=self.sim.now,
        )
        answer_sdp = SessionDescription.for_audio(
            self.host.ip, port,
            self.profile.codec.payload_type, self.profile.codec.name,
            clock_rate=self.profile.codec.clock_rate,
            ptime_ms=int(self.profile.ptime_ms),
        )

        def on_established(c: Call) -> None:
            record.established_at = self.sim.now
            self._start_media(c, media)

        def on_terminated(c: Call, reason: str) -> None:
            self._finish(c, record, media, reason)

        call.on_established = on_established
        call.on_terminated = on_terminated
        self.sim.schedule(self.profile.ring_delay, call.ring)
        low, high = self.profile.answer_delay
        self.sim.schedule(self.profile.ring_delay + self.rng.uniform(low, high),
                          lambda: call.accept(answer_sdp))

    # -- media ---------------------------------------------------------------

    def _start_media(self, call: Call, media: _MediaSession) -> None:
        remote_sdp = call.remote_sdp
        if remote_sdp is None or remote_sdp.audio is None:
            return
        remote = Endpoint(remote_sdp.connection_address, remote_sdp.audio.port)
        media.start_sending(remote, self.rng)

    def _finish(self, call: Call, record: CallRecordStats,
                media: _MediaSession, reason: str) -> None:
        media.stop()
        record.ended_at = self.sim.now
        record.end_reason = reason
        record.final_state = call.state
        receiver = media.receiver
        record.rtp_packets_received = receiver.packets_received
        record.rtp_mean_delay = receiver.delay_stats.mean
        record.rtp_max_delay = receiver.delay_stats.maximum
        record.rtp_delay_variation = receiver.delay_stats.mean_variation
        record.rtp_jitter = receiver.jitter.jitter_seconds
        record.rtp_lost = receiver.lost_estimate
        self.stats.append(record)
        self._media.pop(call.call_id, None)
        if self.on_call_finished is not None:
            self.on_call_finished(record)

    def _allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 2
        while self.host.is_bound(port):
            port += 2
            self._next_port = port + 2
        return port
