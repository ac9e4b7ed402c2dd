"""Fuzz contracts of the wire parsers and the hardened vids pipeline.

Two guarantees the robustness layer depends on:

1. ``sip.message.parse_message`` over arbitrarily mutated bytes raises
   **only** :class:`SipParseError` — never ``IndexError``/``KeyError``/
   ``UnicodeDecodeError``/... — so the classifier's typed catch is
   exhaustive (same for the RTP/RTCP parsers);
2. the full ``Vids.process`` pipeline never raises, whatever arrives, and
   accounts for every malformed packet instead of silently dropping it.

And one agreement with the endpoints' parsers: a status code is three ASCII
digits in 100–699, never what ``int()`` alone would accept.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.efsm import ManualClock
from repro.netsim import Datagram, Endpoint
from repro.rtp.packet import RtpPacket, RtpParseError
from repro.rtp.rtcp import RtcpParseError, parse_rtcp
from repro.sip.errors import SipParseError
from repro.sip.message import parse_message
from repro.vids import DEFAULT_CONFIG, Vids

VALID_SIP = (b"INVITE sip:b1@b.example.com SIP/2.0\r\n"
             b"Via: SIP/2.0/UDP 10.1.0.11:5060;branch=z9hG4bK776asdhds\r\n"
             b"Max-Forwards: 70\r\n"
             b"From: <sip:alice@a.example.com>;tag=1928301774\r\n"
             b"To: <sip:b1@b.example.com>\r\n"
             b"Call-ID: a84b4c76e66710@10.1.0.11\r\n"
             b"CSeq: 314159 INVITE\r\n"
             b"Contact: <sip:alice@10.1.0.11:5060>\r\n"
             b"Content-Type: application/sdp\r\n"
             b"Content-Length: 56\r\n"
             b"\r\n"
             b"v=0\r\nc=IN IP4 10.1.0.11\r\n"
             b"m=audio 20000 RTP/AVP 18\r\n")

_mutations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(VALID_SIP) - 1),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=16)


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for index, value in edits:
        out[index % len(out)] = value
    return bytes(out)


@given(edits=_mutations,
       cut=st.integers(min_value=0, max_value=len(VALID_SIP)))
@settings(max_examples=150, deadline=None)
def test_mutated_sip_parse_raises_only_sip_parse_error(edits, cut):
    data = mutate(VALID_SIP, edits)[:cut]
    try:
        parse_message(data)
    except SipParseError:
        pass  # the one allowed exception type


@given(payload=st.binary(min_size=0, max_size=128))
@settings(max_examples=150, deadline=None)
def test_rtp_and_rtcp_parsers_raise_only_typed_errors(payload):
    try:
        RtpPacket.parse(payload)
    except RtpParseError:
        pass
    try:
        parse_rtcp(payload)
    except RtcpParseError:
        pass


_status_tokens = st.one_of(
    st.integers(min_value=0, max_value=9999).map(str),
    st.text(alphabet="0123456789_+-.x٠١٢٣²", min_size=1, max_size=5))


@given(token=_status_tokens)
@settings(max_examples=300, deadline=None)
def test_a_status_token_is_accepted_iff_it_is_three_ascii_digits_in_range(
        token):
    """``[1-6][0-9][0-9]`` and nothing else: not what ``int()`` would also
    read as a number (``2_0_0``, ``+200``, ``٢٠٠``, ``0200``)."""
    wire = (f"SIP/2.0 {token} OK\r\n".encode()
            + VALID_SIP.split(b"\r\n", 1)[1])
    try:
        accepted = parse_message(wire).status
    except SipParseError:
        accepted = None
    if re.fullmatch(r"[1-6][0-9][0-9]", token):
        assert accepted == int(token)
    else:
        assert accepted is None


@given(edits=_mutations, port=st.sampled_from([5060, 20_000]))
@settings(max_examples=100, deadline=None)
def test_fuzzed_pipeline_never_raises_and_accounts_for_drops(edits, port):
    clock = ManualClock()
    vids = Vids(config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    data = mutate(VALID_SIP, edits)
    vids.process(Datagram(Endpoint("8.8.8.8", port),
                          Endpoint("10.2.0.1", port), data),
                 clock.now())
    metrics = vids.metrics
    assert metrics.packets_processed == 1
    # Every packet lands in exactly one traffic bucket — nothing vanishes.
    buckets = (metrics.sip_messages + metrics.rtp_packets
               + metrics.rtcp_packets + metrics.malformed_packets
               + metrics.other_packets)
    assert buckets == 1
    # A malformed verdict is always accounted per protocol.
    if metrics.malformed_packets:
        assert (metrics.malformed_sip + metrics.malformed_rtp
                + metrics.malformed_rtcp) >= 1


def test_sustained_fuzzing_from_one_source_raises_alert():
    from repro.vids import AttackType

    clock = ManualClock()
    config = DEFAULT_CONFIG.with_overrides(malformed_rate_threshold=10,
                                           malformed_rate_window=1.0)
    vids = Vids(config=config, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    for index in range(12):
        clock.advance(0.01)
        vids.process(Datagram(Endpoint("6.6.6.6", 5060),
                              Endpoint("10.2.0.1", 5060),
                              b"\xff\xfe garbage %d" % index),
                     clock.now())
    assert vids.metrics.malformed_sip >= 10
    assert vids.alert_count(AttackType.PROTOCOL_FUZZING) == 1

    # A quiet window later, a fresh burst re-alerts (per-window semantics).
    clock.advance(2.0)
    for index in range(12):
        clock.advance(0.01)
        vids.process(Datagram(Endpoint("6.6.6.6", 5060),
                              Endpoint("10.2.0.1", 5060), b"\xff more"),
                     clock.now())
    assert vids.alert_count(AttackType.PROTOCOL_FUZZING) == 2


def test_low_rate_malformed_traffic_does_not_alert():
    from repro.vids import AttackType

    clock = ManualClock()
    vids = Vids(config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    for _ in range(30):
        clock.advance(1.5)  # slower than one window per packet
        vids.process(Datagram(Endpoint("6.6.6.6", 5060),
                              Endpoint("10.2.0.1", 5060), b"\xffjunk"),
                     clock.now())
    assert vids.metrics.malformed_sip == 30
    assert vids.alert_count(AttackType.PROTOCOL_FUZZING) == 0
