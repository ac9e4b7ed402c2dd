"""Point-to-point duplex links with bandwidth, propagation delay and loss.

A link models serialization (size * 8 / bandwidth), a FIFO transmit queue per
direction (a port busy sending holds subsequent packets back), fixed
propagation delay, and independent Bernoulli packet loss.  The enterprise
LANs in the testbed are 100BaseT (100 Mb/s) links and the uplinks are DS1
(1.544 Mb/s), exactly as in the paper's Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from .packet import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network
    from .node import Node

__all__ = ["Link", "LinkStats", "BPS_100BASET", "BPS_DS1"]

#: 100BaseT Ethernet, used for the enterprise LANs.
BPS_100BASET = 100_000_000
#: DS1 / T1 uplink rate, used for the Internet-facing links.
BPS_DS1 = 1_544_000


@dataclass
class LinkStats:
    """Per-direction counters kept by a link."""

    packets_sent: int = 0
    packets_dropped: int = 0       # random (Bernoulli) loss
    packets_overflowed: int = 0    # drop-tail queue overflow
    bytes_sent: int = 0
    queueing_delay_total: float = 0.0


@dataclass(slots=True)
class _Port:
    """One direction of a link: the sender's FIFO, its counters, the peer."""

    busy_until: float
    stats: LinkStats
    peer: "Node"


class Link:
    """A duplex point-to-point link between two nodes.

    One port per direction, keyed by the sending node: one lookup per hop,
    which raises ``KeyError`` for a node not attached, before anything is
    counted or scheduled.  ``stats`` holds the same counters by node name.
    """

    def __init__(
        self,
        network: "Network",
        node_a: "Node",
        node_b: "Node",
        bandwidth_bps: float = BPS_100BASET,
        propagation_delay: float = 0.0001,
        loss_rate: float = 0.0,
        max_queue_delay: Optional[float] = None,
        name: Optional[str] = None,
    ):
        self.network = network
        self.node_a = node_a
        self.node_b = node_b
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self.loss_rate = float(loss_rate)
        #: Drop-tail buffer size expressed as seconds of queueing; None is
        #: an unbounded buffer.
        self.max_queue_delay = max_queue_delay
        self.name = name or f"{node_a.name}<->{node_b.name}"
        self._ports: Dict["Node", _Port] = {
            node_a: _Port(0.0, LinkStats(), node_b),
            node_b: _Port(0.0, LinkStats(), node_a),
        }
        self.stats: Dict[str, LinkStats] = {
            node.name: port.stats for node, port in self._ports.items()}
        self._rng = network.streams.stream(f"link:{self.name}:loss")
        node_a.attach_link(self)
        node_b.attach_link(self)

    def other(self, node: "Node") -> "Node":
        """The peer node on the far side of ``node``."""
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise ValueError(f"{node.name} is not attached to link {self.name}")

    def transmit(self, datagram: Datagram, sender: "Node") -> None:
        """Send ``datagram`` from ``sender`` toward the other end.

        Applies FIFO serialization queueing at the sender's port, then
        propagation delay, then Bernoulli loss; on survival the peer node's
        ``receive`` runs at the arrival instant.
        """
        sim = self.network.sim
        now = sim.now
        port = self._ports[sender]
        stats = port.stats
        size = datagram.size
        busy = port.busy_until
        start = busy if busy > now else now
        if (self.max_queue_delay is not None
                and start - now > self.max_queue_delay):
            stats.packets_overflowed += 1
            return
        stats.queueing_delay_total += start - now
        busy = port.busy_until = start + size * 8.0 / self.bandwidth_bps
        arrival = busy + self.propagation_delay

        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            stats.packets_dropped += 1
            return
        stats.packets_sent += 1
        stats.bytes_sent += size
        datagram.hops += 1
        sim.schedule_at(arrival, port.peer.receive, datagram, self)
