"""Unit tests for SIP message parsing and serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.sip import (
    SipParseError,
    SipRequest,
    SipResponse,
    is_sip_payload,
    parse_message,
)

INVITE_TEXT = (
    "INVITE sip:bob@b.example.com SIP/2.0\r\n"
    "Via: SIP/2.0/UDP 10.1.0.11:5060;branch=z9hG4bK776asdhds\r\n"
    "Max-Forwards: 70\r\n"
    "To: Bob <sip:bob@b.example.com>\r\n"
    "From: Alice <sip:alice@a.example.com>;tag=1928301774\r\n"
    "Call-ID: a84b4c76e66710@10.1.0.11\r\n"
    "CSeq: 314159 INVITE\r\n"
    "Contact: <sip:alice@10.1.0.11>\r\n"
    "Content-Type: application/sdp\r\n"
    "Content-Length: 4\r\n"
    "\r\n"
    "v=0\n"
)


def test_parse_request():
    message = parse_message(INVITE_TEXT)
    assert isinstance(message, SipRequest)
    assert message.method == "INVITE"
    assert message.uri.host == "b.example.com"
    assert message.call_id == "a84b4c76e66710@10.1.0.11"
    assert message.cseq.number == 314159
    assert message.from_.tag == "1928301774"
    assert message.to.tag is None
    assert message.branch == "z9hG4bK776asdhds"
    assert message.body == "v=0\n"


def test_parse_response():
    text = (
        "SIP/2.0 180 Ringing\r\n"
        "Via: SIP/2.0/UDP 10.1.0.11:5060;branch=z9hG4bKxyz\r\n"
        "To: <sip:bob@b.com>;tag=99\r\n"
        "From: <sip:alice@a.com>;tag=11\r\n"
        "Call-ID: abc@10.1.0.11\r\n"
        "CSeq: 1 INVITE\r\n"
        "\r\n"
    )
    message = parse_message(text)
    assert isinstance(message, SipResponse)
    assert message.status == 180
    assert message.reason == "Ringing"
    assert message.is_provisional and not message.is_final


def test_serialize_parse_round_trip():
    message = parse_message(INVITE_TEXT)
    again = parse_message(message.serialize())
    assert again.method == "INVITE"
    assert again.headers == message.headers
    assert again.body == message.body


def test_serialize_fixes_content_length():
    request = SipRequest("OPTIONS", "sip:x@y.com", body="hello")
    wire = request.serialize().decode()
    assert "Content-Length: 5" in wire


def test_multiple_via_headers_keep_order():
    text = INVITE_TEXT.replace(
        "Max-Forwards",
        "Via: SIP/2.0/UDP 10.9.9.9:5060;branch=z9hG4bKproxy\r\nMax-Forwards")
    message = parse_message(text)
    vias = message.vias
    assert len(vias) == 2
    assert vias[0].host == "10.1.0.11"
    assert vias[1].host == "10.9.9.9"


def test_comma_separated_vias_split():
    text = (
        "SIP/2.0 200 OK\r\n"
        "Via: SIP/2.0/UDP a:1;branch=z9hG4bK1, SIP/2.0/UDP b:2;branch=z9hG4bK2\r\n"
        "CSeq: 1 INVITE\r\n\r\n"
    )
    message = parse_message(text)
    assert [via.host for via in message.vias] == ["a", "b"]


def test_header_folding_supported():
    text = (
        "OPTIONS sip:x@y.com SIP/2.0\r\n"
        "Subject: first part\r\n"
        " continued here\r\n"
        "\r\n"
    )
    message = parse_message(text)
    assert message.get("Subject") == "first part continued here"


def test_compact_header_forms_normalized():
    text = (
        "OPTIONS sip:x@y.com SIP/2.0\r\n"
        "i: call1@x\r\n"
        "f: <sip:a@b>;tag=1\r\n"
        "t: <sip:c@d>\r\n"
        "\r\n"
    )
    message = parse_message(text)
    assert message.call_id == "call1@x"
    assert message.from_.uri.user == "a"


def test_bare_lf_tolerated():
    message = parse_message(INVITE_TEXT.replace("\r\n", "\n"))
    assert message.method == "INVITE"


def test_header_add_set_prepend_remove():
    request = SipRequest("OPTIONS", "sip:x@y.com")
    request.add("Via", "SIP/2.0/UDP a:1;branch=z9hG4bK1")
    request.prepend("Via", "SIP/2.0/UDP b:2;branch=z9hG4bK2")
    assert request.top_via.host == "b"
    removed = request.remove_first("Via")
    assert "b:2" in removed
    assert request.top_via.host == "a"
    request.set("Via", "SIP/2.0/UDP c:3;branch=z9hG4bK3")
    assert len(request.get_all("Via")) == 1


def test_create_response_copies_dialog_headers():
    invite = parse_message(INVITE_TEXT)
    response = invite.create_response(180, to_tag="totag1")
    assert response.status == 180
    assert response.get("Via") == invite.get("Via")
    assert response.call_id == invite.call_id
    assert response.cseq == invite.cseq
    assert response.to.tag == "totag1"
    assert response.from_.tag == "1928301774"


def test_create_response_100_gets_no_tag():
    invite = parse_message(INVITE_TEXT)
    response = invite.create_response(100, to_tag="nope")
    assert response.to.tag is None


def test_create_response_preserves_existing_to_tag():
    text = INVITE_TEXT.replace("To: Bob <sip:bob@b.example.com>",
                               "To: Bob <sip:bob@b.example.com>;tag=orig")
    invite = parse_message(text)
    response = invite.create_response(200, to_tag="new")
    assert response.to.tag == "orig"


@pytest.mark.parametrize("bad", [
    "",
    "\r\n\r\n",
    "GARBAGE\r\n\r\n",
    "INVITE sip:x@y.com\r\n\r\n",                  # missing version
    "INVITE sip:x@y.com HTTP/1.1\r\n\r\n",          # wrong protocol
    "SIP/2.0 999 Nope\r\n\r\n",                     # status out of range
    "SIP/2.0 abc Nope\r\n\r\n",
    "invite sip:x@y.com SIP/2.0\r\n\r\n",           # lowercase method
    "OPTIONS sip:x@y.com SIP/2.0\r\nNoColonHere\r\n\r\n",
])
def test_parse_errors(bad):
    with pytest.raises(SipParseError):
        parse_message(bad)


def test_binary_payload_rejected():
    with pytest.raises(SipParseError):
        parse_message(b"\x80\x01\x02\xff")


def test_is_sip_payload_sniffing():
    assert is_sip_payload(INVITE_TEXT.encode())
    assert is_sip_payload(b"SIP/2.0 200 OK\r\n\r\n")
    assert not is_sip_payload(b"\x80\x12\x34\x56")
    assert not is_sip_payload(b"GET / HTTP/1.1\r\n")


def _straddling(wire):
    """Whether byte 64 of ``wire`` falls inside a multi-byte character."""
    return 0x80 <= wire[63] and (wire[64] & 0xC0) == 0x80


def test_sniff_accepts_a_request_whose_uri_straddles_byte_64():
    # "é" (2 bytes) at offsets 63-64 of the Request-URI.
    user = "u" * (63 - len("OPTIONS sip:")) + "é"
    wire = (f"OPTIONS sip:{user}@b.example.com SIP/2.0\r\n"
            "Via: SIP/2.0/UDP 10.1.0.11:5060;branch=z9hG4bKsniff\r\n"
            "Call-ID: sniff@x\r\nCSeq: 1 OPTIONS\r\n\r\n").encode()
    assert _straddling(wire)
    assert parse_message(wire).method == "OPTIONS"
    assert is_sip_payload(wire)


def test_sniff_accepts_a_response_whose_reason_phrase_straddles_byte_64():
    # RFC 3261 §25.1: the Reason-Phrase is UTF-8 text.
    reason = "Belegt " + "ü" * 28
    wire = f"SIP/2.0 486 {reason}\r\nCall-ID: sniff@x\r\n\r\n".encode()
    assert _straddling(wire)
    assert parse_message(wire).reason == reason
    assert is_sip_payload(wire)


def test_status_classification():
    assert SipResponse(100).is_provisional
    assert SipResponse(200).is_success and SipResponse(200).is_final
    assert SipResponse(487).is_final and not SipResponse(487).is_success
    assert SipResponse(603).is_final


def test_reason_phrase_defaults():
    assert SipResponse(200).reason == "OK"
    assert SipResponse(487).reason == "Request Terminated"
    assert SipResponse(299).reason == "OK"  # generic per class


_header_values = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           blacklist_characters=":,"),
    min_size=1, max_size=30)


@given(subject=_header_values, body=st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=120))
def test_property_request_round_trip(subject, body):
    request = SipRequest("OPTIONS", "sip:probe@example.com", body=body)
    request.set("Subject", subject)
    request.set("Call-ID", "cid@example.com")
    request.set("CSeq", "1 OPTIONS")
    parsed = parse_message(request.serialize())
    assert parsed.method == "OPTIONS"
    assert parsed.get("Subject") == subject.strip()
    assert parsed.body == body
