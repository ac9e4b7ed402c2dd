"""Unit tests for the Event Distributor and its event builders."""


from repro.netsim import Datagram, Endpoint
from repro.sip import SipRequest, parse_message
from repro.vids import (
    DEFAULT_CONFIG,
    rtp_event_from_packet,
    sip_event_from_message,
)
from repro.vids.classifier import ClassifiedPacket, PacketKind
from repro.rtp import RtpPacket

from .test_ids import (
    CALLEE,
    CALLER,
    PROXY_A,
    PROXY_B,
    dgram,
    invite_bytes,
    make_vids,
    response_bytes,
    rtp_bytes,
)


class TestSipEventBuilder:
    def test_request_event_vector(self):
        message = parse_message(invite_bytes())
        event = sip_event_from_message(message, (PROXY_A, 5060),
                                       (PROXY_B, 5060), now=3.5)
        assert event.name == "INVITE"
        assert event.time == 3.5
        assert event["src_ip"] == PROXY_A
        assert event["call_id"].startswith("e2e-1")
        assert event["from_tag"] == "ft"
        assert event["to_tag"] is None
        assert event["cseq_method"] == "INVITE"
        assert event["contact_host"] == CALLER
        assert event["via_hosts"] == (PROXY_A, CALLER)
        assert event["sdp_addr"] == CALLER
        assert event["sdp_port"] == 20_000
        assert event["sdp_pts"] == (18,)
        assert event["to_aor"] == "bob@b.example.com"

    def test_response_event_vector(self):
        message = parse_message(response_bytes(180))
        event = sip_event_from_message(message, (PROXY_B, 5060),
                                       (PROXY_A, 5060), now=0.0)
        assert event.name == "RESPONSE"
        assert event["status"] == 180
        assert event["to_tag"] == "tt"

    def test_non_sdp_body_ignored(self):
        request = SipRequest("INVITE", "sip:x@y.com", body="not sdp at all")
        request.set("Content-Type", "text/plain")
        request.set("Via", "SIP/2.0/UDP 1.1.1.1:5060;branch=z9hG4bK1")
        request.set("From", "<sip:a@b.c>;tag=1")
        request.set("To", "<sip:x@y.com>")
        request.set("Call-ID", "c@d")
        request.set("CSeq", "1 INVITE")
        event = sip_event_from_message(request, ("1.1.1.1", 5060),
                                       ("2.2.2.2", 5060), now=0.0)
        assert "sdp_addr" not in event.args

    def test_garbage_sdp_body_tolerated(self):
        request = SipRequest("INVITE", "sip:x@y.com", body="x=broken")
        request.set("Content-Type", "application/sdp")
        request.set("Via", "SIP/2.0/UDP 1.1.1.1:5060;branch=z9hG4bK1")
        request.set("From", "<sip:a@b.c>;tag=1")
        request.set("To", "<sip:x@y.com>")
        request.set("Call-ID", "c@d")
        request.set("CSeq", "1 INVITE")
        event = sip_event_from_message(request, ("1.1.1.1", 5060),
                                       ("2.2.2.2", 5060), now=0.0)
        assert event.name == "INVITE"
        assert "sdp_addr" not in event.args


class TestRtpEventBuilder:
    def test_event_vector(self):
        packet = RtpPacket(18, 77, 8000, 0xFEED, payload=bytes(20))
        datagram = Datagram(Endpoint(CALLER, 20_000),
                            Endpoint(CALLEE, 20_002), packet.serialize())
        classified = ClassifiedPacket(datagram, PacketKind.RTP, rtp=packet)
        event = rtp_event_from_packet(classified, "to_callee", now=9.0)
        assert event.name == "RTP_PACKET"
        assert event["seq"] == 77
        assert event["ssrc"] == 0xFEED
        assert event["pt"] == 18
        assert event["direction"] == "to_callee"
        assert event.time == 9.0


class TestDistribution:
    def test_register_bypasses_call_machines_but_alerts_at_perimeter(self):
        vids, clock = make_vids()
        register = SipRequest("REGISTER", "sip:b.example.com")
        register.set("Via", f"SIP/2.0/UDP {CALLER}:5060;branch=z9hG4bKr")
        register.set("From", "<sip:a@a.com>;tag=1")
        register.set("To", "<sip:a@a.com>")
        register.set("Call-ID", "r@x")
        register.set("CSeq", "1 REGISTER")
        vids.process(dgram(register.serialize(), CALLER, PROXY_B),
                     clock.now())
        assert vids.active_calls == 0
        # A perimeter REGISTER is itself the registration-hijack signal.
        from repro.vids import AttackType
        assert vids.alert_count(AttackType.REGISTRATION_HIJACK) == 1

    def test_register_detection_can_be_disabled(self):
        from repro.vids import DEFAULT_CONFIG
        vids, clock = make_vids(DEFAULT_CONFIG.with_overrides(
            detect_foreign_register=False))
        register = SipRequest("REGISTER", "sip:b.example.com")
        register.set("Via", f"SIP/2.0/UDP {CALLER}:5060;branch=z9hG4bKr")
        register.set("From", "<sip:a@a.com>;tag=1")
        register.set("To", "<sip:a@a.com>")
        register.set("Call-ID", "r@x")
        register.set("CSeq", "1 REGISTER")
        vids.process(dgram(register.serialize(), CALLER, PROXY_B),
                     clock.now())
        assert vids.alerts == []

    def test_invite_without_call_id_creates_no_record(self):
        vids, clock = make_vids()
        request = SipRequest("INVITE", "sip:bob@b.example.com")
        request.set("Via", f"SIP/2.0/UDP {PROXY_A}:5060;branch=z9hG4bKq")
        request.set("From", "<sip:a@a.com>;tag=1")
        request.set("To", "<sip:bob@b.example.com>")
        request.set("CSeq", "1 INVITE")   # deliberately no Call-ID
        vids.process(dgram(request.serialize(), PROXY_A, PROXY_B),
                     clock.now())
        assert vids.active_calls == 0

    def test_stray_response_ignored(self):
        vids, clock = make_vids()
        vids.process(dgram(response_bytes(200, call_id="ghost@x"),
                           PROXY_B, PROXY_A), clock.now())
        assert vids.active_calls == 0
        assert vids.alerts == []

    def test_rtp_to_unknown_destination_goes_to_orphan_tracker(self):
        vids, clock = make_vids()
        vids.process(dgram(rtp_bytes(), CALLER, CALLEE, 20_000, 40_404),
                     clock.now())
        assert (CALLEE, 40_404) in vids.trackers.orphan_tracker.machines
        assert vids.active_calls == 0

    def test_flood_target_falls_back_to_uri_then_ip(self):
        from repro.efsm import Event
        vids, clock = make_vids()
        distributor = vids.distributor
        event = Event("INVITE", {"to_aor": "bob@b.com", "dst_ip": "9.9.9.9"})
        assert distributor._flood_target(event) == "bob@b.com"
        event = Event("INVITE", {"to_aor": "", "uri_user": "bob",
                                 "uri_host": "b.com", "dst_ip": "9.9.9.9"})
        assert distributor._flood_target(event) == "bob@b.com"
        event = Event("INVITE", {"to_aor": "", "uri_user": "",
                                 "uri_host": "", "dst_ip": "9.9.9.9"})
        assert distributor._flood_target(event) == "9.9.9.9"
