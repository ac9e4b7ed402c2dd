"""Unit tests for the passive packet trace recorder."""

from repro.netsim import Datagram, Endpoint, PacketTrace


def make_datagram(payload=b"payload", dst_port=7):
    return Datagram(Endpoint("1.1.1.1", 5060), Endpoint("2.2.2.2", dst_port),
                    payload, created_at=1.0)


def test_observe_records_time_and_place():
    trace = PacketTrace(where="uplink")
    trace.observe(make_datagram(), now=3.5)
    assert len(trace) == 1
    record = trace.records[0]
    assert record.time == 3.5
    assert record.where == "uplink"
    assert record.datagram.payload == b"payload"


def test_predicate_filters():
    trace = PacketTrace(predicate=lambda d: d.dst.port == 5060)
    trace.observe(make_datagram(dst_port=5060), now=0.0)
    trace.observe(make_datagram(dst_port=9999), now=0.0)
    assert len(trace) == 1


def test_keep_payloads_false_strips_bytes():
    trace = PacketTrace(keep_payloads=False)
    trace.observe(make_datagram(payload=b"secret" * 100), now=0.0)
    assert trace.records[0].datagram.payload == b""
    # Addressing metadata survives.
    assert trace.records[0].datagram.src.ip == "1.1.1.1"


def test_keep_payloads_false_preserves_packet_identity():
    # The stripped copy must still correlate with observations of the same
    # packet at other trace points.
    trace = PacketTrace(keep_payloads=False)
    original = make_datagram()
    original.packet_id, original.hops = 42, 3
    trace.observe(original, now=0.0)
    stripped = trace.records[0].datagram
    assert stripped.packet_id == 42
    assert stripped.hops == 3
    assert stripped.created_at == original.created_at


def test_processor_interface_costs_nothing():
    trace = PacketTrace()
    assert trace.process(make_datagram(), 0.0) == 0.0
    assert len(trace) == 1
