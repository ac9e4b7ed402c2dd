"""Unit tests for background cross-traffic generators."""

import pytest

from repro.netsim import (
    CbrTrafficSource,
    Endpoint,
    Host,
    Network,
    TrafficSink,
)


def build_pair(bandwidth=10_000_000):
    net = Network(seed=1)
    a = Host(net, "a", "10.0.0.1")
    b = Host(net, "b", "10.0.0.2")
    net.link(a, b, bandwidth_bps=bandwidth, propagation_delay=0.001)
    net.compute_routes()
    sink = TrafficSink(b, 40_000)
    return net, a, b, sink


def test_cbr_rate_is_accurate():
    net, a, b, sink = build_pair()
    source = CbrTrafficSource(a, Endpoint("10.0.0.2", 40_000),
                              rate_bps=800_000, packet_bytes=1000)
    source.start()
    net.run(until=10.0)
    # 800 kb/s at 1000 B/packet = 100 packets/s.
    assert source.packets_sent == pytest.approx(1000, abs=2)
    assert sink.packets == pytest.approx(source.packets_sent, abs=2)
    assert sink.bytes == pytest.approx(1000 * sink.packets, rel=0.01)


def test_cbr_stop():
    net, a, b, sink = build_pair()
    source = CbrTrafficSource(a, Endpoint("10.0.0.2", 40_000),
                              rate_bps=800_000)
    source.start()
    net.run(until=1.0)
    source.stop()
    count = source.packets_sent
    net.run(until=5.0)
    assert source.packets_sent == count


def test_cross_traffic_delays_competing_flow():
    """Background CBR near line rate inflates a probe flow's delay."""
    delays = {}
    for load in (0.0, 0.9):
        net = Network(seed=2)
        a = Host(net, "a", "10.0.0.1")
        b = Host(net, "b", "10.0.0.2")
        net.link(a, b, bandwidth_bps=1_544_000, propagation_delay=0.001)
        net.compute_routes()
        arrivals = []
        b.bind(50_000, lambda d: arrivals.append(net.sim.now - d.created_at))
        if load:
            TrafficSink(b, 40_000)
            source = CbrTrafficSource(a, Endpoint("10.0.0.2", 40_000),
                                      rate_bps=load * 1_544_000,
                                      packet_bytes=1000)
            source.start()
        for index in range(100):
            net.sim.schedule_at(1.0 + index * 0.1, a.send_udp,
                                Endpoint("10.0.0.2", 50_000), b"p" * 60,
                                50_000)
        net.run(until=15.0)
        delays[load] = sum(arrivals) / len(arrivals)
    assert delays[0.9] > 1.5 * delays[0.0]
