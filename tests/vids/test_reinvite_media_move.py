"""A legitimate re-INVITE moves the media; vids must follow the new port."""

from repro.sip import SipRequest

from .test_ids import (
    CALLEE,
    CALLER,
    SDP_OFFER,
    dgram,
    establish_call,
    make_vids,
    rtp_bytes,
    stream_media,
)


def reinvite_bytes(new_port, cseq=2):
    request = SipRequest("INVITE", f"sip:bob@{CALLEE}:5060",
                         body=SDP_OFFER.format(ip=CALLER, port=new_port))
    request.set("Via", f"SIP/2.0/UDP {CALLER}:5060;branch=z9hG4bKre{cseq}")
    request.set("Max-Forwards", 70)
    request.set("From", "<sip:alice@a.example.com>;tag=ft")
    request.set("To", "<sip:bob@b.example.com>;tag=tt")
    request.set("Call-ID", "e2e-1@10.1.0.11")
    request.set("CSeq", f"{cseq} INVITE")
    request.set("Contact", f"<sip:alice@{CALLER}:5060>")
    request.set("Content-Type", "application/sdp")
    return request.serialize()


def test_media_index_follows_reinvite():
    vids, clock = make_vids()
    establish_call(vids, clock)
    record = vids.factbase.get("e2e-1@10.1.0.11")

    # Caller moves its media sink from 20000 to 24000.
    vids.process(dgram(reinvite_bytes(24_000), CALLER, CALLEE), clock.now())
    assert record.sip.state == "Call_Established"
    assert vids.alerts == []
    assert vids.factbase.lookup_media((CALLER, 24_000)) is not None
    assert vids.factbase.lookup_media((CALLER, 20_000)) is None

    # Media toward the new sink routes to the call machine, not orphans.
    stream_media(vids, clock, count=3, ssrc=0xBBBB,
                 src=CALLEE, dst=CALLER, dport=24_000)
    assert (CALLER, 24_000) not in vids.trackers.orphan_tracker.machines
    assert record.rtp.state == "RTP_Rcvd"


def test_media_to_the_old_port_after_move_is_orphan():
    vids, clock = make_vids()
    establish_call(vids, clock)
    vids.process(dgram(reinvite_bytes(24_000), CALLER, CALLEE), clock.now())
    # Stragglers to the retired port are unsolicited media now.
    for index in range(3):
        clock.advance(0.02)
        vids.process(
            dgram(rtp_bytes(ssrc=0xBBBB, seq=index + 1, ts=(index + 1) * 160),
                  CALLEE, CALLER, 20_002, 20_000),
            clock.now())
    assert (CALLER, 20_000) in vids.trackers.orphan_tracker.machines
