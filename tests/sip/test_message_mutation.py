"""Mutation coverage for the SipMessage accessors.

The typed accessors (``from_``, ``to``, ``cseq``, ``contact``, ``vias``,
``top_via``) and ``get``/``get_all`` read the one header list, so every
mutation path — ``set`` (in-place replace, or collapse of repeated
headers), ``add``, ``prepend`` and ``remove_first`` — must be observed by
the very next read, whatever was read before it.
"""

from repro.sip import parse_message

WIRE = (
    "INVITE sip:bob@b.example.com SIP/2.0\r\n"
    "Via: SIP/2.0/UDP 10.1.0.11:5060;branch=z9hG4bKaaa\r\n"
    "Via: SIP/2.0/UDP 10.1.0.12:5060;branch=z9hG4bKbbb\r\n"
    "To: Bob <sip:bob@b.example.com>\r\n"
    "From: Alice <sip:alice@a.example.com>;tag=oldtag\r\n"
    "Call-ID: memo@test\r\n"
    "CSeq: 1 INVITE\r\n"
    "Contact: <sip:alice@10.1.0.11>\r\n"
    "\r\n"
)


def _warm(message):
    """Touch every accessor before the mutation under test."""
    return (message.from_, message.to, message.cseq, message.contact,
            message.vias, message.top_via, message.get("Call-ID"),
            message.get_all("Via"))


def test_set_invalidates_typed_accessor():
    message = parse_message(WIRE)
    assert message.from_.tag == "oldtag"
    message.set("From", "Alice <sip:alice@a.example.com>;tag=newtag")
    assert message.from_.tag == "newtag"
    assert message.get("From").endswith("tag=newtag")


def test_set_preserves_position_and_index():
    message = parse_message(WIRE)
    _warm(message)
    names_before = [name for name, _ in message.headers]
    message.set("Call-ID", "changed@test")
    # Single-occurrence set replaces in place: same header order.
    assert [name for name, _ in message.headers] == names_before
    assert message.get("Call-ID") == "changed@test"
    assert message.get_all("Call-ID") == ["changed@test"]


def test_set_collapses_repeated_headers():
    message = parse_message(WIRE)
    assert len(message.vias) == 2
    message.set("Via", "SIP/2.0/UDP 10.9.9.9:5060;branch=z9hG4bKzzz")
    assert message.get_all("Via") == \
        ["SIP/2.0/UDP 10.9.9.9:5060;branch=z9hG4bKzzz"]
    assert len(message.vias) == 1
    assert message.top_via.host == "10.9.9.9"


def test_add_invalidates_vias_and_extends_index():
    message = parse_message(WIRE)
    _warm(message)
    message.add("Via", "SIP/2.0/UDP 10.2.0.1:5060;branch=z9hG4bKccc")
    assert len(message.vias) == 3
    assert message.vias[-1].host == "10.2.0.1"
    assert len(message.get_all("Via")) == 3
    # Unrelated accessors still serve the right values.
    assert message.from_.tag == "oldtag"
    assert message.cseq.method == "INVITE"


def test_add_unrelated_header_keeps_typed_caches_correct():
    message = parse_message(WIRE)
    _warm(message)
    message.add("X-Extra", "1")
    message.add("X-Extra", "2")
    assert message.get_all("X-Extra") == ["1", "2"]
    assert message.top_via.host == "10.1.0.11"


def test_prepend_invalidates_top_via():
    message = parse_message(WIRE)
    assert message.top_via.host == "10.1.0.11"
    message.prepend("Via", "SIP/2.0/UDP 10.3.0.1:5060;branch=z9hG4bKddd")
    assert message.top_via.host == "10.3.0.1"
    assert len(message.vias) == 3
    assert message.get("Via").startswith("SIP/2.0/UDP 10.3.0.1")


def test_remove_first_invalidates_everything_it_touches():
    message = parse_message(WIRE)
    _warm(message)
    removed = message.remove_first("Via")
    assert "z9hG4bKaaa" in removed
    assert message.top_via.host == "10.1.0.12"
    assert len(message.vias) == 1
    assert message.get_all("Via") == \
        ["SIP/2.0/UDP 10.1.0.12:5060;branch=z9hG4bKbbb"]
    # Removing the only CSeq leaves the typed accessor empty, not stale.
    assert message.remove_first("CSeq") == "1 INVITE"
    assert message.cseq is None
    assert message.get("CSeq") is None


def test_mutation_sequence_stays_consistent():
    """Interleave every mutation kind and re-check all accessors."""
    message = parse_message(WIRE)
    _warm(message)
    message.set("CSeq", "2 INVITE")
    message.add("Via", "SIP/2.0/UDP 10.4.0.1:5060;branch=z9hG4bKeee")
    message.prepend("Via", "SIP/2.0/UDP 10.5.0.1:5060;branch=z9hG4bKfff")
    message.remove_first("Contact")
    assert message.cseq.number == 2
    assert message.contact is None
    hosts = [via.host for via in message.vias]
    assert hosts == ["10.5.0.1", "10.1.0.11", "10.1.0.12", "10.4.0.1"]
    assert message.top_via.host == "10.5.0.1"
    # The wire image agrees with the accessors after all of it.
    reparsed = parse_message(message.serialize())
    assert [via.host for via in reparsed.vias] == hosts
    assert reparsed.cseq.number == 2
