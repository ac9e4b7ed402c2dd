"""Unit tests for links: serialization, queueing, propagation, loss."""

import pytest

from repro.netsim import (
    BPS_DS1,
    Datagram,
    Endpoint,
    Host,
    IP_UDP_OVERHEAD,
    Network,
)


def make_pair(bandwidth=1_000_000, delay=0.01, loss=0.0, seed=0):
    net = Network(seed=seed)
    a = Host(net, "a", "10.0.0.1")
    b = Host(net, "b", "10.0.0.2")
    link = net.link(a, b, bandwidth_bps=bandwidth, propagation_delay=delay,
                    loss_rate=loss)
    net.compute_routes()
    return net, a, b, link


def test_delivery_time_includes_serialization_and_propagation():
    net, a, b, _ = make_pair(bandwidth=1_000_000, delay=0.01)
    arrivals = []
    b.bind(9, lambda d: arrivals.append(net.sim.now))
    payload = bytes(972)  # 972 + 28 overhead = 1000 B = 8000 bits
    a.send_udp(Endpoint("10.0.0.2", 9), payload, 9)
    net.run()
    assert arrivals == [pytest.approx(0.008 + 0.01)]


def test_back_to_back_packets_queue_at_the_port():
    net, a, b, link = make_pair(bandwidth=1_000_000, delay=0.0)
    arrivals = []
    b.bind(9, lambda d: arrivals.append(net.sim.now))
    payload = bytes(972)  # 8 ms serialization each
    a.send_udp(Endpoint("10.0.0.2", 9), payload, 9)
    a.send_udp(Endpoint("10.0.0.2", 9), payload, 9)
    net.run()
    assert arrivals[0] == pytest.approx(0.008)
    assert arrivals[1] == pytest.approx(0.016)
    stats = link.stats["a"]
    assert stats.packets_sent == 2
    assert stats.queueing_delay_total == pytest.approx(0.008)


def test_directions_have_independent_ports():
    net, a, b, _ = make_pair(bandwidth=1_000_000, delay=0.0)
    arrivals = []
    a.bind(9, lambda d: arrivals.append(("a", net.sim.now)))
    b.bind(9, lambda d: arrivals.append(("b", net.sim.now)))
    payload = bytes(972)
    a.send_udp(Endpoint("10.0.0.2", 9), payload, 9)
    b.send_udp(Endpoint("10.0.0.1", 9), payload, 9)
    net.run()
    # Both arrive after one serialization time: no cross-direction queueing.
    assert arrivals[0][1] == pytest.approx(0.008)
    assert arrivals[1][1] == pytest.approx(0.008)


def test_total_loss_drops_everything():
    net, a, b, link = make_pair(loss=1.0)
    received = []
    b.bind(9, received.append)
    for _ in range(20):
        a.send_udp(Endpoint("10.0.0.2", 9), b"x", 9)
    net.run()
    assert received == []
    assert link.stats["a"].packets_dropped == 20


def test_partial_loss_rate_is_roughly_honoured():
    net, a, b, link = make_pair(loss=0.3, seed=5)
    received = []
    b.bind(9, received.append)
    for _ in range(2000):
        a.send_udp(Endpoint("10.0.0.2", 9), b"x", 9)
    net.run()
    drop_fraction = link.stats["a"].packets_dropped / 2000
    assert 0.25 < drop_fraction < 0.35
    assert len(received) + link.stats["a"].packets_dropped == 2000


def test_datagram_size_includes_headers():
    datagram = Datagram(Endpoint("1.1.1.1", 1), Endpoint("2.2.2.2", 2),
                        b"hello")
    assert datagram.size == 5 + IP_UDP_OVERHEAD


def test_ds1_serialization_is_slow():
    net, a, b, _ = make_pair(bandwidth=BPS_DS1, delay=0.0)
    arrivals = []
    b.bind(9, lambda d: arrivals.append(net.sim.now))
    a.send_udp(Endpoint("10.0.0.2", 9), bytes(472), 9)  # 500 B on the wire
    net.run()
    assert arrivals == [pytest.approx(500 * 8 / BPS_DS1)]


def test_other_rejects_foreign_node():
    net, a, b, link = make_pair()
    c = Host(net, "c", "10.0.0.3")
    with pytest.raises(ValueError):
        link.other(c)


def test_b_to_a_is_delivered_to_a_with_bs_stats():
    net, a, b, link = make_pair(bandwidth=1_000_000, delay=0.0)
    arrivals = []
    a.bind(9, lambda d: arrivals.append((net.sim.now, d.payload, d.hops)))
    link.transmit(Datagram(Endpoint("10.0.0.2", 9), Endpoint("10.0.0.1", 9),
                           bytes(972)), b)
    net.run()
    assert arrivals == [(pytest.approx(0.008), bytes(972), 1)]
    assert (link.stats["b"].packets_sent, link.stats["b"].bytes_sent) \
        == (1, 1000)
    assert link.stats["a"].packets_sent == 0


def test_transmit_from_a_foreign_node_raises_and_schedules_nothing():
    net, a, b, link = make_pair()
    c = Host(net, "c", "10.0.0.3")
    datagram = Datagram(Endpoint("10.0.0.3", 9), Endpoint("10.0.0.2", 9),
                        b"x")
    pending = net.sim.pending_events
    with pytest.raises(KeyError):
        link.transmit(datagram, c)
    assert net.sim.pending_events == pending
    assert datagram.hops == 0
    assert all(stats.packets_sent == 0 for stats in link.stats.values())
