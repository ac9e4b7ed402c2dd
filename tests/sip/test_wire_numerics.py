"""Numeric wire fields are ASCII digits, in range — at every site.

Python's ``int()`` reads ``1_0`` as 10, ``+7`` as 7 and any Unicode digit
as a number; no SIP endpoint does (RFC 3261: ``1*DIGIT``).  A middlebox
that accepts what the endpoints reject sees a different dialog than they
do, so each of these is a parse error, and the pipeline counts the packet
the way it counts any other unparseable one.
"""

import pytest

from repro.efsm import ManualClock
from repro.netsim import Datagram, Endpoint
from repro.sip import (CSeq, SessionDescription, SipParseError, SipUri, Via,
                       parse_message)
from repro.sip.errors import wire_int
from repro.sip.sdp import media_brief
from repro.vids import DEFAULT_CONFIG, Vids

HEADERS = ("Via: SIP/2.0/UDP 10.1.0.11:5060;branch=z9hG4bKnum\r\n"
           "From: <sip:alice@a.example.com>;tag=ft\r\n"
           "To: <sip:bob@b.example.com>\r\n"
           "Call-ID: numerics@10.1.0.11\r\n")


def message(start="INVITE sip:bob@b.example.com SIP/2.0",
            cseq="1 INVITE", sdp=""):
    head = f"{start}\r\n{HEADERS}CSeq: {cseq}\r\n"
    if sdp:
        head += "Content-Type: application/sdp\r\n"
    return (f"{head}Content-Length: {len(sdp)}\r\n\r\n{sdp}").encode()


#: (what the parent accepted, the parser that must now reject it, input)
HOSTILE = [
    ("status 2_0_0 read as 200", parse_message,
     message(start="SIP/2.0 2_0_0 OK")),
    ("CSeq 1_0 read as 10", CSeq.parse, "1_0 INVITE"),
    ("CSeq +7 accepted", CSeq.parse, "+7 invite"),
    ("Arabic-Indic CSeq digits accepted", CSeq.parse, "١٢ INVITE"),
    ("negative URI port accepted", SipUri.parse, "sip:a@h:-5"),
    ("negative Request-URI port accepted", parse_message,
     message(start="INVITE sip:a@h:-5 SIP/2.0")),
    ("Via port 50_60 read as 5060", Via.parse,
     "SIP/2.0/UDP 10.1.0.11:50_60;branch=z9hG4bKnum"),
    ("m= port 1_0 and payload type 1_8 accepted", media_brief,
     "v=0\r\nm=audio 1_0 RTP/AVP 1_8\r\n"),
    ("same, full SDP parse", SessionDescription.parse,
     "v=0\r\nm=audio 1_0 RTP/AVP 1_8\r\n"),
    ("ptime +20 accepted", media_brief,
     "v=0\r\nm=audio 10 RTP/AVP 18\r\na=ptime:+20\r\n"),
    ("o= id 1_1 accepted", SessionDescription.parse,
     "v=0\r\no=- 1_1 1 IN IP4 10.0.0.1\r\n"),
    ("port past 65535 accepted", media_brief,
     "v=0\r\nm=audio 70000 RTP/AVP 18\r\n"),
    ("payload type past 127 accepted", media_brief,
     "v=0\r\nm=audio 10 RTP/AVP 128\r\n"),
    ("status 99 / 700 out of range", parse_message,
     message(start="SIP/2.0 700 Nope")),
    ("four-digit status 0200 read as 200", parse_message,
     message(start="SIP/2.0 0200 OK")),
]


@pytest.mark.parametrize("was, parse, text", HOSTILE,
                         ids=[row[0] for row in HOSTILE])
def test_hostile_numerics_are_parse_errors(was, parse, text):
    with pytest.raises(SipParseError):
        parse(text)


def test_wire_int_takes_plain_digits_in_range_and_nothing_else():
    assert wire_int("port", 0, 65535, "5060") == 5060
    assert wire_int("n", 0, 9, "007") == 7
    for text in ("", " 7", "7 ", "-1", "+1", "1_0", "1.0", "0x10", "٧",
                 "²", "65536", "9" * 5000):
        with pytest.raises(SipParseError):
            wire_int("port", 0, 65535, text)


@pytest.mark.parametrize("wire, counter", [
    (message(start="SIP/2.0 2_0_0 OK"), "malformed_sip"),
    (message(cseq="1_0 INVITE"), "malformed_sip"),
    (message(cseq="+7 invite"), "malformed_sip"),
    (message(cseq="١ INVITE"), "malformed_sip"),
    (message(start="INVITE sip:a@h:-5 SIP/2.0"), "malformed_sip"),
    (message(sdp="v=0\r\nm=audio 1_0 RTP/AVP 1_8\r\n"),
     "sdp_parse_failures"),
])
def test_the_pipeline_counts_them_as_it_counts_any_unparseable_packet(
        wire, counter):
    clock = ManualClock()
    vids = Vids(config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    vids.process(Datagram(Endpoint("10.1.0.1", 5060),
                          Endpoint("10.2.0.1", 5060), wire), clock.now())
    assert getattr(vids.metrics, counter) == 1
    assert vids.metrics.internal_errors == 0
