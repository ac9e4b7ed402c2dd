"""Packet model: UDP datagrams carried over the simulated IP network.

The reproduction carries *real* protocol payloads — SIP messages are RFC 3261
text and RTP packets are RFC 3550 binary — so the vids packet classifier
works from the same information a sniffer on the wire would see.
"""

from __future__ import annotations

from dataclasses import dataclass

from .address import Endpoint

__all__ = ["Datagram", "IP_UDP_OVERHEAD"]

#: Bytes of IP (20) + UDP (8) header added to every payload on the wire.
IP_UDP_OVERHEAD = 28


@dataclass
class Datagram:
    """A UDP datagram in flight.

    Attributes:
        src: source endpoint (ip, port).
        dst: destination endpoint (ip, port).
        payload: application bytes (SIP text or RTP binary).
        created_at: simulation time the datagram was handed to the stack.
        packet_id: the id trace events correlate on: drawn from the
            simulator's ``"packet"`` stream, or the running datagram count
            of the pcap reader or live tap that decoded it; 0 when unset.
        hops: number of store-and-forward hops traversed so far.
    """

    src: Endpoint
    dst: Endpoint
    payload: bytes
    created_at: float = 0.0
    packet_id: int = 0
    hops: int = 0

    @property
    def size(self) -> int:
        """Total on-the-wire size in bytes, including IP/UDP headers."""
        return len(self.payload) + IP_UDP_OVERHEAD

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = self.payload[:24]
        return (
            f"Datagram#{self.packet_id}({self.src} -> {self.dst}, "
            f"{len(self.payload)}B, {head!r}...)"
        )
