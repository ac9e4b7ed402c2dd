"""Background cross-traffic generators.

The paper's opening premise: VoIP "shares the network resources with the
regular Internet traffic".  These generators put that regular traffic on
the wire so experiments can study voice QoS and vids behaviour under load:

- :class:`CbrTrafficSource` — constant bit rate (e.g. a bulk transfer).

It sends plain UDP datagrams with an arbitrary payload tag; the vids
classifier files them under OTHER, which is itself worth testing — the IDS
must not choke on, or alert about, unrelated traffic.
"""

from __future__ import annotations

from typing import Optional

from .address import Endpoint
from .engine import Timer
from .node import Host
from .packet import IP_UDP_OVERHEAD

__all__ = ["CbrTrafficSource", "TrafficSink"]


class TrafficSink:
    """Counts background datagrams arriving at a port."""

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self.packets = 0
        self.bytes = 0
        host.bind(port, self._on_datagram)

    def _on_datagram(self, datagram) -> None:
        self.packets += 1
        self.bytes += datagram.size

    def close(self) -> None:
        self.host.unbind(self.port)


class CbrTrafficSource:
    """Constant-bit-rate UDP stream."""

    def __init__(
        self,
        host: Host,
        remote: Endpoint,
        rate_bps: float,
        packet_bytes: int = 1000,
        local_port: int = 40_000,
    ):
        self.host = host
        self.remote = remote
        self.rate_bps = float(rate_bps)
        self.packet_bytes = packet_bytes
        self.local_port = local_port
        self.packets_sent = 0
        self._payload = b"\x00" * max(1, packet_bytes - IP_UDP_OVERHEAD)
        self._timer: Optional[Timer] = None
        self._running = False

    @property
    def interval(self) -> float:
        return self.packet_bytes * 8.0 / self.rate_bps

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._timer = self.host.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.host.send_udp(self.remote, self._payload, self.local_port)
        self.packets_sent += 1
        self._timer = self.host.sim.schedule(self.interval, self._tick)
