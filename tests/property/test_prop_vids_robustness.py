"""Fuzz-robustness: vids must survive arbitrary perimeter traffic.

An IDS at the network edge is fed by adversaries; whatever bytes arrive,
the pipeline must classify, count, and move on — never raise.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.netsim import Datagram, Endpoint

from ..vids.test_ids import make_vids


_ips = st.sampled_from(["10.1.0.1", "10.2.0.11", "172.16.6.6", "8.8.8.8"])
_ports = st.sampled_from([5060, 5061, 20_000, 20_002, 80, 31_337])


@given(st.lists(st.tuples(_ips, _ports, _ips, _ports,
                          st.binary(min_size=0, max_size=300)),
                max_size=30))
@settings(max_examples=80, deadline=None)
def test_random_bytes_never_crash(packets):
    vids, clock = make_vids()
    for src_ip, src_port, dst_ip, dst_port, payload in packets:
        clock.advance(0.001)
        cost = vids.process(
            Datagram(Endpoint(src_ip, src_port), Endpoint(dst_ip, dst_port),
                     payload, created_at=clock.now()),
            clock.now())
        assert cost >= 0
    assert vids.metrics.packets_processed == len(packets)


_sipish_lines = st.lists(
    st.text(alphabet=string.printable.replace("\r", "").replace("\x0b", "")
            .replace("\x0c", ""), max_size=60),
    max_size=12)


@given(method=st.sampled_from(["INVITE", "BYE", "CANCEL", "ACK", "OPTIONS",
                               "REGISTER", "FAKE"]),
       lines=_sipish_lines)
@settings(max_examples=80, deadline=None)
def test_mutated_sip_never_crashes(method, lines):
    """Structurally SIP-like but arbitrarily broken messages."""
    vids, clock = make_vids()
    body = "\r\n".join([f"{method} sip:x@y.com SIP/2.0"] + lines + ["", ""])
    vids.process(
        Datagram(Endpoint("8.8.8.8", 5060), Endpoint("10.2.0.1", 5060),
                 body.encode()),
        clock.now())
    # Either parsed (and possibly tracked/alerted) or counted malformed —
    # never an exception, and the pipeline stays usable:
    vids.process(
        Datagram(Endpoint("8.8.8.8", 5060), Endpoint("10.2.0.1", 5060),
                 b"OPTIONS sip:probe@y.com SIP/2.0\r\nCSeq: 1 OPTIONS\r\n\r\n"),
        clock.now())
    assert vids.metrics.packets_processed == 2


@given(st.binary(min_size=12, max_size=64))
@settings(max_examples=80, deadline=None)
def test_rtp_like_binary_never_crashes(payload):
    vids, clock = make_vids()
    # Force the RTP version bits so the parser path is exercised.
    payload = bytes([0x80]) + payload[1:]
    vids.process(
        Datagram(Endpoint("8.8.8.8", 20_000), Endpoint("10.2.0.11", 20_002),
                 payload),
        clock.now())
    assert vids.metrics.packets_processed == 1
