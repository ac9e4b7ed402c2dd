"""Periodic RTCP reporting for live sessions.

Couples an :class:`~repro.rtp.session.RtpSender` and/or
:class:`~repro.rtp.session.RtpReceiver` to the RTCP port (RTP port + 1,
per RFC 3550 convention): the sender side emits Sender Reports with its
packet/octet counts; the receiver side emits Receiver Reports carrying its
loss estimate and jitter.  Reports are small and infrequent (default 5 s),
matching RFC 3550's minimum interval.
"""

from __future__ import annotations

from typing import Optional

from ..netsim.address import Endpoint
from ..netsim.engine import Timer
from ..netsim.node import Host
from ..netsim.packet import Datagram
from .rtcp import ReceiverReport, ReportBlock, RtcpParseError, SenderReport, \
    parse_rtcp
from .session import RtpReceiver, RtpSender

__all__ = ["RtcpReporter", "DEFAULT_RTCP_INTERVAL"]

DEFAULT_RTCP_INTERVAL = 5.0

#: Seconds between 1 Jan 1900 (NTP epoch) and the simulation epoch; the
#: absolute value is arbitrary in simulation, only differences matter.
_NTP_EPOCH_OFFSET = 2_208_988_800


def _ntp_timestamp(now: float) -> int:
    seconds = int(now) + _NTP_EPOCH_OFFSET
    fraction = int((now - int(now)) * (1 << 32))
    return (seconds << 32) | fraction


class RtcpReporter:
    """Sends SR/RR on the RTCP port for one media session leg."""

    def __init__(
        self,
        host: Host,
        rtp_port: int,
        remote_rtp: Endpoint,
        sender: Optional[RtpSender] = None,
        receiver: Optional[RtpReceiver] = None,
        interval: float = DEFAULT_RTCP_INTERVAL,
    ):
        self.host = host
        self.sim = host.sim
        self.local_port = rtp_port + 1
        self.remote = Endpoint(remote_rtp.ip, remote_rtp.port + 1)
        self.sender = sender
        self.receiver = receiver
        self.interval = interval
        self.reports_sent = 0
        self.reports_received = 0
        self.last_peer_report = None
        self._timer: Optional[Timer] = None
        self._running = False
        if not host.is_bound(self.local_port):
            host.bind(self.local_port, self._on_datagram)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._timer = self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def close(self) -> None:
        self.stop()
        if self.host.is_bound(self.local_port):
            self.host.unbind(self.local_port)

    def _on_datagram(self, datagram: Datagram) -> None:
        try:
            self.last_peer_report = parse_rtcp(datagram.payload)
            self.reports_received += 1
        except RtcpParseError:
            pass

    def _tick(self) -> None:
        if not self._running:
            return
        payload = self._build_report()
        if payload:
            self.host.send_udp(self.remote, payload, self.local_port)
            self.reports_sent += 1
        self._timer = self.sim.schedule(self.interval, self._tick)

    def _build_report(self) -> bytes:
        block = self._report_block()
        if self.sender is not None and self.sender.packets_sent:
            payload_bytes = self.sender.codec.payload_bytes(
                self.sender.ptime_ms)
            report = SenderReport(
                ssrc=self.sender.ssrc,
                ntp_timestamp=_ntp_timestamp(self.sim.now),
                rtp_timestamp=self.sender.timestamp,
                packet_count=self.sender.packets_sent,
                octet_count=self.sender.packets_sent * payload_bytes,
                report=block,
            )
            return report.serialize()
        if block is not None:
            ssrc = self.sender.ssrc if self.sender else 0
            return ReceiverReport(ssrc=ssrc, report=block).serialize()
        return b""

    def _report_block(self) -> Optional[ReportBlock]:
        receiver = self.receiver
        if receiver is None or receiver.packets_received == 0:
            return None
        total = receiver.packets_received + receiver.lost_estimate
        fraction = (0 if total == 0
                    else min(255, int(256 * receiver.lost_estimate / total)))
        return ReportBlock(
            ssrc=receiver._ssrc or 0,
            fraction_lost=fraction,
            cumulative_lost=min(receiver.lost_estimate, (1 << 24) - 1),
            highest_seq=receiver._expected_seq or 0,
            jitter=int(receiver.jitter.jitter_units),
        )
