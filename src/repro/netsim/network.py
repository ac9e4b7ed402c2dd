"""Topology container: nodes, links, hosts, and static route computation.

A :class:`Network` owns the simulator, the random streams, the node/host
registries, and a drop counter.  After the topology is wired,
:meth:`Network.compute_routes` builds per-node next-hop tables from
shortest paths over the (unit-weight) topology graph.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Dict, List, Optional

from .engine import Simulator
from .link import Link
from .node import Host, Node
from .random import RandomStreams

__all__ = ["Network"]


class Network:
    """The simulated internetwork: one simulator, many nodes and links."""

    def __init__(self, sim: Optional[Simulator] = None, seed: int = 0):
        self.sim = sim or Simulator()
        self.streams = RandomStreams(seed)
        self.nodes: Dict[str, Node] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        self.drops: Counter = Counter()
        self._routes_valid = False

    # -- registration -----------------------------------------------------

    def register_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        self._routes_valid = False

    def register_host(self, host: Host) -> None:
        if host.ip in self.hosts:
            raise ValueError(f"duplicate host IP: {host.ip}")
        self.hosts[host.ip] = host

    def link(self, node_a: Node, node_b: Node, **kwargs) -> Link:
        """Create a link between two nodes (see :class:`Link` for kwargs)."""
        link = Link(self, node_a, node_b, **kwargs)
        self.links.append(link)
        self._routes_valid = False
        return link

    def host_by_ip(self, ip: str) -> Host:
        return self.hosts[ip]

    def count_drop(self, node_name: str, reason: str) -> None:
        self.drops[(node_name, reason)] += 1

    # -- routing -----------------------------------------------------------

    def compute_routes(self) -> None:
        """Install next-hop routes on every node for every host IP.

        Shortest paths over the unit-weight topology graph: a level-order
        breadth-first search from each host, neighbours visited in the
        order their links were created, so the first path discovered wins
        every tie.  A second link between the same two nodes replaces the
        first but keeps the neighbour's place in that order.
        """
        neighbours: Dict[str, Dict[str, Link]] = {
            name: {} for name in self.nodes}
        for link in self.links:
            a, b = link.node_a.name, link.node_b.name
            neighbours[a][b] = link
            neighbours[b][a] = link

        for host in self.hosts.values():
            reached = {host.name}
            level = [host.name]
            while level:
                following = []
                for name in level:
                    for neighbour, link in neighbours[name].items():
                        if neighbour not in reached:
                            reached.add(neighbour)
                            following.append(neighbour)
                            # The way back toward the host is the link the
                            # search arrived over.
                            self.nodes[neighbour].routes[host.ip] = link
                level = following
        self._routes_valid = True

    def run(self, until: Optional[float] = None) -> None:
        """Compute routes if necessary and run the simulation."""
        if not self._routes_valid:
            self.compute_routes()
        self.sim.run(until=until)

    # -- observability -----------------------------------------------------

    def register_metrics(self, registry, prefix: str = "netsim") -> None:
        """Expose engine and per-link counters through an obs registry.

        All samples are callback-backed reads of the live simulation state,
        so registration costs nothing on the packet path.  Call after the
        topology is wired (links registered later won't be exported).
        """
        sim = self.sim
        registry.gauge(
            f"{prefix}_time_seconds", "Current simulation time",
        ).set_function(lambda: sim.now)
        registry.gauge(
            f"{prefix}_pending_events", "Live events queued in the engine",
        ).set_function(lambda: sim.pending_events)
        registry.counter(
            f"{prefix}_events_processed", "Events dispatched by the engine",
        ).set_function(lambda: sim.events_processed)

        labelnames = ("link", "sender")
        families = [
            (registry.counter(f"{prefix}_link_packets_sent",
                              "Packets delivered per link direction",
                              labelnames=labelnames), "packets_sent"),
            (registry.counter(f"{prefix}_link_packets_dropped",
                              "Packets lost to Bernoulli loss",
                              labelnames=labelnames), "packets_dropped"),
            (registry.counter(f"{prefix}_link_packets_overflowed",
                              "Packets dropped by the drop-tail queue",
                              labelnames=labelnames), "packets_overflowed"),
            (registry.counter(f"{prefix}_link_bytes_sent",
                              "Bytes delivered per link direction",
                              labelnames=labelnames), "bytes_sent"),
            (registry.counter(f"{prefix}_link_queueing_delay_seconds",
                              "Cumulative serialization queueing delay",
                              labelnames=labelnames), "queueing_delay_total"),
        ]
        for link in self.links:
            for sender, stats in link.stats.items():
                for family, attr in families:
                    family.labels(link=link.name, sender=sender).set_function(
                        partial(getattr, stats, attr))
