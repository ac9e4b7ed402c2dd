"""Unit tests for topology/route computation."""

import random

import pytest

from repro.netsim import Endpoint, Host, Network, Router


def test_routes_prefer_shortest_path():
    net = Network(seed=0)
    a = Host(net, "a", "10.0.0.1")
    b = Host(net, "b", "10.0.1.1")
    r1 = Router(net, "r1")
    r2 = Router(net, "r2")
    r3 = Router(net, "r3")
    # Short path a-r1-b; long path a-r2-r3-b.
    net.link(a, r1)
    net.link(r1, b)
    net.link(a, r2)
    net.link(r2, r3)
    net.link(r3, b)
    net.compute_routes()
    # a's next hop toward b must be the a-r1 link.
    link = a.routes["10.0.1.1"]
    assert {link.node_a.name, link.node_b.name} == {"a", "r1"}


def test_routes_recomputed_after_topology_change():
    net = Network(seed=0)
    a = Host(net, "a", "10.0.0.1")
    b = Host(net, "b", "10.0.1.1")
    net.link(a, b)
    net.compute_routes()
    received = []
    b.bind(7, received.append)
    a.send_udp(Endpoint("10.0.1.1", 7), b"one", 7)
    net.run()
    assert len(received) == 1

    c = Host(net, "c", "10.0.2.1")
    net.link(b, c)
    got_c = []
    c.bind(7, got_c.append)
    net.compute_routes()  # send_udp forwards immediately, so refresh first
    a.send_udp(Endpoint("10.0.2.1", 7), b"x", 7)
    net.run()
    # a->c goes through b, but b is a host and drops transit traffic.
    assert net.drops[("b", "not-mine")] == 1


def test_host_by_ip_lookup():
    net = Network(seed=0)
    a = Host(net, "a", "10.0.0.1")
    assert net.host_by_ip("10.0.0.1") is a


def test_disconnected_node_has_no_route():
    net = Network(seed=0)
    a = Host(net, "a", "10.0.0.1")
    Host(net, "b", "10.0.1.1")
    net.compute_routes()
    assert "10.0.1.1" not in a.routes


# -- parity with the networkx search this module used to call ------------------


def _networkx_routes(net):
    """The retired implementation: ``{(node, host ip): link}``."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(sorted(net.nodes))
    for link in net.links:
        graph.add_edge(link.node_a.name, link.node_b.name, link=link)
    routes = {}
    for host in net.hosts.values():
        paths = nx.single_source_shortest_path(graph, host.name)
        for name, path in paths.items():
            if len(path) >= 2:
                routes[(name, host.ip)] = graph.edges[name, path[-2]]["link"]
    return routes


def _installed_routes(net):
    net.compute_routes()
    return {(name, ip): link for name, node in net.nodes.items()
            for ip, link in node.routes.items()}


def _random_mesh(seed, nodes=12):
    """Hosts and routers on a connected mesh dense enough for equal-length
    paths, with a few links doubled (the later link must win)."""
    rng = random.Random(seed)
    net = Network(seed=0)
    members = [Host(net, f"h{i}", f"10.0.{i}.1") if i % 2 else
               Router(net, f"r{i}") for i in range(nodes)]
    rng.shuffle(members)
    for index in range(1, nodes):
        net.link(members[rng.randrange(index)], members[index])
    for _ in range(nodes):
        a, b = rng.sample(members, 2)
        net.link(a, b)
    for link in rng.sample(net.links, 3):
        net.link(link.node_b, link.node_a)
    return net


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_testbed_routes_match_networkx(seed):
    from repro.telephony import TestbedParams, build_testbed

    net = build_testbed(TestbedParams(seed=seed)).network
    assert _installed_routes(net) == _networkx_routes(net)


def test_random_mesh_routes_match_networkx():
    for seed in range(200):
        net = _random_mesh(seed)
        installed = _installed_routes(net)
        assert installed == _networkx_routes(net), seed
        assert installed
