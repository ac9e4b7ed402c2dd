"""Nodes of the simulated network: hosts, routers, and hubs.

Forwarding uses static next-hop routing tables computed by
:class:`repro.netsim.network.Network` from the topology graph (shortest
path), mirroring how OPNET auto-configures routes for a static scenario.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .address import Endpoint
from .packet import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from .link import Link
    from .network import Network

__all__ = ["Node", "Host", "Router", "Hub"]

UdpHandler = Callable[[Datagram], None]


class Node:
    """Base class for anything attached to links.  A plain node forwards
    what arrives (``receive`` *is* ``forward``: one call per router hop);
    the host, the inline device and the Internet cloud override ``receive``."""

    def __init__(self, network: "Network", name: str):
        self.network = network
        #: The network's simulator, which is never rebound.
        self.sim = network.sim
        self.name = name
        self.links: List["Link"] = []
        #: next-hop routing table: destination IP -> link to forward on
        self.routes: Dict[str, "Link"] = {}
        network.register_node(self)

    def attach_link(self, link: "Link") -> None:
        self.links.append(link)

    def forward(self, datagram: Datagram, in_link: Optional["Link"]) -> None:
        """Forward ``datagram`` toward its destination via the routing table."""
        link = self.routes.get(datagram.dst.ip)
        if link is None:
            self.network.count_drop(self.name, "no-route")
            return
        link.transmit(datagram, self)

    #: Handle an arriving datagram.  Default behaviour: forward.
    receive = forward

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Router(Node):
    """A store-and-forward IP router."""


class Hub(Node):
    """A LAN aggregation device (modeled as a learning switch / router).

    The paper's enterprise networks hang all phones and the proxy off a hub;
    forwarding behaviour at this abstraction level is identical to a router
    with per-host routes.
    """


class Host(Node):
    """An end system with an IP address and a UDP socket table.

    Applications (SIP user agents, proxies, RTP sessions, attack injectors)
    bind handlers to local UDP ports and send datagrams with
    :meth:`send_udp`.
    """

    def __init__(self, network: "Network", name: str, ip: str):
        super().__init__(network, name)
        self.ip = ip
        self._sockets: Dict[int, UdpHandler] = {}
        network.register_host(self)

    def bind(self, port: int, handler: UdpHandler) -> None:
        """Bind ``handler`` to receive datagrams addressed to ``port``."""
        if port in self._sockets:
            raise ValueError(f"{self.name}: port {port} already bound")
        self._sockets[port] = handler

    def unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def is_bound(self, port: int) -> bool:
        return port in self._sockets

    def send_udp(
        self,
        dst: Endpoint,
        payload: bytes,
        src_port: int,
        src_ip: Optional[str] = None,
    ) -> Datagram:
        """Create and transmit a UDP datagram from this host.

        ``src_ip`` may be supplied to *spoof* the source address — several of
        the paper's threat-model attacks (spoofed BYE/CANCEL, DRDoS) rely on
        exactly this capability, and the simulated network, like the real
        Internet, does not validate it.
        """
        datagram = Datagram(
            src=Endpoint(src_ip or self.ip, src_port),
            dst=dst,
            payload=payload,
            created_at=self.sim.now,
            packet_id=self.sim.next_id("packet"),
        )
        if dst.ip == self.ip:
            # Loopback delivery: stays on-host.
            self.sim.schedule(0.0, self._deliver, datagram)
        else:
            self.forward(datagram, None)
        return datagram

    def receive(self, datagram: Datagram, in_link: "Link") -> None:
        if datagram.dst.ip == self.ip:
            self._deliver(datagram)
        else:
            # Hosts do not forward transit traffic.
            self.network.count_drop(self.name, "not-mine")

    def _deliver(self, datagram: Datagram) -> None:
        handler = self._sockets.get(datagram.dst.port)
        if handler is None:
            self.network.count_drop(self.name, "port-unreachable")
            return
        handler(datagram)
