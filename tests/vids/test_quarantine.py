"""Crash containment: a poisoned call is quarantined, the IDS survives.

The scenario the paper's deployment makes scary: vids is a bump-in-the-wire
device, so an exception escaping per-call analysis would take the whole
perimeter down.  These tests poison one call's EFSM system and assert the
blast radius is exactly that call.
"""

import pytest

from repro.efsm import ManualClock
from repro.netsim import Datagram, Endpoint
from repro.sip.message import SipRequest
from repro.sip.sdp import SDP_CONTENT_TYPE, SessionDescription
from repro.vids import DEFAULT_CONFIG, AttackType, Vids

PROXY_B = Endpoint("10.2.0.1", 5060)


def make_vids(config=DEFAULT_CONFIG):
    clock = ManualClock()
    return Vids(config=config, clock_now=clock.now,
                timer_scheduler=clock.schedule), clock


def invite_datagram(call_id, to_user="b1", from_user="alice",
                    src_ip="10.1.0.11", seq=1, media_port=20_000):
    sdp = SessionDescription.for_audio(src_ip, media_port, 18, "G729")
    request = SipRequest("INVITE", f"sip:{to_user}@b.example.com",
                         body=sdp.serialize())
    request.set("Via", f"SIP/2.0/UDP {src_ip}:5060;branch=z9hG4bK{call_id}{seq}")
    request.set("From", f"<sip:{from_user}@a.example.com>;tag=tag-{call_id}")
    request.set("To", f"<sip:{to_user}@b.example.com>")
    request.set("Call-ID", call_id)
    request.set("CSeq", f"{seq} INVITE")
    request.set("Contact", f"<sip:{from_user}@{src_ip}:5060>")
    request.set("Content-Type", SDP_CONTENT_TYPE)
    return Datagram(Endpoint(src_ip, 5060), PROXY_B, request.serialize())


def bye_datagram(call_id, src_ip="10.1.0.11", seq=2):
    request = SipRequest("BYE", "sip:b1@b.example.com")
    request.set("Via", f"SIP/2.0/UDP {src_ip}:5060;branch=z9hG4bKb{call_id}{seq}")
    request.set("From", f"<sip:alice@a.example.com>;tag=tag-{call_id}")
    request.set("To", "<sip:b1@b.example.com>;tag=remote")
    request.set("Call-ID", call_id)
    request.set("CSeq", f"{seq} BYE")
    return Datagram(Endpoint(src_ip, 5060), PROXY_B, request.serialize())


def poison(vids, call_id):
    """Make the call's next EFSM injection blow up (simulated state bug)."""
    record = vids.factbase.get(call_id)
    assert record is not None

    def boom(*result):
        raise RuntimeError("poisoned transition")

    # Both firing hooks are declared slots (EfsmSystem uses __slots__), so
    # they are per-instance patchable: one of them runs on every firing of
    # this call, observable or quiet.
    record.system.on_result = record.system.on_quiet = boom
    return record


def test_poisoned_call_is_quarantined_alone():
    vids, clock = make_vids()
    vids.process(invite_datagram("call-a"), clock.now())
    vids.process(invite_datagram("call-b", to_user="b2", from_user="bob",
                                 src_ip="10.1.0.12", media_port=20_010),
                 clock.now())
    assert vids.active_calls == 2

    poison(vids, "call-a")
    clock.advance(0.01)
    vids.process(bye_datagram("call-a"), clock.now())  # triggers the bomb

    # Exactly one call quarantined; the other is untouched.
    assert vids.metrics.internal_errors == 1
    assert vids.metrics.calls_quarantined == 1
    assert vids.factbase.get("call-a") is None
    assert vids.factbase.get("call-b") is not None
    assert vids.factbase.is_quarantined("call-a")
    assert not vids.factbase.is_quarantined("call-b")

    alerts = vids.alert_manager.by_type(AttackType.IDS_INTERNAL)
    assert len(alerts) == 1
    assert alerts[0].call_id == "call-a"
    assert "RuntimeError" in alerts[0].detail["error"]


def test_quarantined_call_traffic_is_dropped_not_resurrected():
    vids, clock = make_vids()
    vids.process(invite_datagram("call-a"), clock.now())
    poison(vids, "call-a")
    vids.process(bye_datagram("call-a"), clock.now())
    assert vids.metrics.calls_quarantined == 1

    # A retransmitted INVITE for the quarantined call must neither recreate
    # the record nor raise again.
    vids.process(invite_datagram("call-a"), clock.now())
    vids.process(bye_datagram("call-a"), clock.now())
    assert vids.metrics.quarantined_drops == 2
    assert vids.metrics.internal_errors == 1
    assert vids.factbase.get("call-a") is None
    assert vids.metrics.calls_created == 1


def test_quarantined_media_does_not_feed_orphan_tracker():
    vids, clock = make_vids()
    vids.process(invite_datagram("call-a"), clock.now())
    record = vids.factbase.get("call-a")
    # The INVITE's SDP offer indexes the caller's media sink.
    assert record.media_map
    media_key = next(iter(record.media_map))

    poison(vids, "call-a")
    vids.process(bye_datagram("call-a"), clock.now())
    assert vids.factbase.quarantined_media.get(media_key) == "call-a"

    from repro.rtp.packet import RtpPacket
    payload = RtpPacket(payload_type=18, sequence_number=1, timestamp=160,
                        ssrc=77, payload=b"\x00" * 10).serialize()
    before = vids.alert_count()
    vids.process(Datagram(Endpoint("172.16.6.6", 40_000),
                          Endpoint(media_key[0], media_key[1]), payload),
                 clock.now())
    assert vids.metrics.quarantined_drops == 1
    assert vids.alert_count() == before  # no unsolicited-media noise


def test_detection_still_works_after_quarantine():
    vids, clock = make_vids()
    vids.process(invite_datagram("call-a"), clock.now())
    poison(vids, "call-a")
    vids.process(bye_datagram("call-a"), clock.now())

    # An INVITE flood arriving afterwards is still detected.
    for index in range(DEFAULT_CONFIG.invite_flood_threshold + 1):
        vids.process(invite_datagram(f"flood-{index}", to_user="victim",
                                     from_user=f"z{index}",
                                     src_ip="172.16.0.9"),
                     clock.now())
    assert vids.alert_count(AttackType.INVITE_FLOOD) >= 1


def test_containment_off_propagates_for_debugging():
    vids, clock = make_vids(DEFAULT_CONFIG.with_overrides(
        crash_containment=False))
    vids.process(invite_datagram("call-a"), clock.now())
    poison(vids, "call-a")
    with pytest.raises(RuntimeError):
        vids.process(bye_datagram("call-a"), clock.now())


def test_quarantine_entries_expire_with_gc():
    config = DEFAULT_CONFIG.with_overrides(call_record_ttl=10.0)
    vids, clock = make_vids(config)
    vids.process(invite_datagram("call-a"), clock.now())
    poison(vids, "call-a")
    vids.process(bye_datagram("call-a"), clock.now())
    assert vids.factbase.is_quarantined("call-a")

    clock.advance(11.0)
    vids.factbase.collect_garbage()
    assert not vids.factbase.is_quarantined("call-a")
    assert not vids.factbase.quarantined_media
