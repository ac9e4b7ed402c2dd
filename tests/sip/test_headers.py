"""Unit tests for structured header values."""

import pytest

from repro.netsim import Simulator
from repro.sip import (
    CSeq,
    NameAddr,
    SipParseError,
    Via,
    canonical_header_name,
    new_branch,
    new_call_id,
    new_tag,
)


class TestCanonicalNames:
    def test_compact_forms_expand(self):
        assert canonical_header_name("v") == "Via"
        assert canonical_header_name("f") == "From"
        assert canonical_header_name("t") == "To"
        assert canonical_header_name("i") == "Call-ID"
        assert canonical_header_name("m") == "Contact"
        assert canonical_header_name("l") == "Content-Length"

    def test_case_insensitive(self):
        assert canonical_header_name("CALL-ID") == "Call-ID"
        assert canonical_header_name("cseq") == "CSeq"
        assert canonical_header_name("VIA") == "Via"

    def test_unknown_header_capitalized(self):
        assert canonical_header_name("x-custom-thing") == "X-Custom-Thing"


class TestVia:
    def test_parse_full(self):
        via = Via.parse("SIP/2.0/UDP host.example.com:5061"
                        ";branch=z9hG4bKabc;received=1.2.3.4")
        assert via.transport == "UDP"
        assert via.host == "host.example.com"
        assert via.port == 5061
        assert via.branch == "z9hG4bKabc"
        assert via.params["received"] == "1.2.3.4"

    def test_default_port(self):
        via = Via.parse("SIP/2.0/UDP host.example.com;branch=z9hG4bKx")
        assert via.port == 5060

    def test_round_trip(self):
        text = "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK99"
        assert str(Via.parse(text)) == text

    @pytest.mark.parametrize("bad", [
        "nonsense",
        "HTTP/1.1/TCP host",
        "SIP/2.0/UDP :5060",
        "SIP/2.0/UDP host:xyz",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(SipParseError):
            Via.parse(bad)


class TestNameAddr:
    def test_parse_with_display_name(self):
        addr = NameAddr.parse('"Alice Smith" <sip:alice@a.com>;tag=abc')
        assert addr.display_name == "Alice Smith"
        assert addr.uri.user == "alice"
        assert addr.tag == "abc"

    def test_parse_addr_spec_form(self):
        addr = NameAddr.parse("sip:bob@b.com;tag=9")
        assert addr.uri.user == "bob"
        assert addr.tag == "9"

    def test_with_tag_does_not_mutate(self):
        addr = NameAddr.parse("<sip:bob@b.com>")
        tagged = addr.with_tag("t1")
        assert addr.tag is None
        assert tagged.tag == "t1"

    def test_round_trip(self):
        text = '"Bob" <sip:bob@b.com>;tag=x1'
        assert str(NameAddr.parse(text)) == text

    def test_no_display_round_trip(self):
        text = "<sip:bob@b.com>;tag=x1"
        assert str(NameAddr.parse(text)) == text


class TestCSeq:
    def test_parse(self):
        cseq = CSeq.parse("314159 INVITE")
        assert cseq.number == 314159
        assert cseq.method == "INVITE"

    def test_next(self):
        assert CSeq(1, "INVITE").next() == CSeq(2, "INVITE")
        assert CSeq(1, "INVITE").next("BYE") == CSeq(2, "BYE")

    def test_round_trip(self):
        assert str(CSeq.parse("2 BYE")) == "2 BYE"

    @pytest.mark.parametrize("bad", ["", "INVITE", "x INVITE", "1 2 3"])
    def test_parse_errors(self, bad):
        with pytest.raises(SipParseError):
            CSeq.parse(bad)


class TestGenerators:
    def test_branches_unique_and_rfc_prefixed(self):
        sim = Simulator()
        branches = {new_branch(sim) for _ in range(100)}
        assert len(branches) == 100
        assert all(b.startswith("z9hG4bK") for b in branches)

    def test_tags_unique(self):
        sim = Simulator()
        assert len({new_tag(sim) for _ in range(100)}) == 100

    def test_call_ids_unique_and_scoped(self):
        sim = Simulator()
        cids = {new_call_id(sim, "10.0.0.1") for _ in range(100)}
        assert len(cids) == 100
        assert all(c.endswith("@10.0.0.1") for c in cids)
        first, second = Simulator(), Simulator()
        assert ([new_branch(first), new_tag(first), new_call_id(first)]
                == [new_branch(second), new_tag(second), new_call_id(second)])
