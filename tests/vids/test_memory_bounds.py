"""Carrier-scale memory bounds: parse caches are capped, calls keep no log.

Under carrier traffic (or an attacker minting identifiers), dialog values
never repeat — a day of calls is a million unique Call-IDs, tags, and
branches.  Every value-level parse cache in the SIP fast path must
therefore hold at its declared cap instead of growing with the traffic:
these tests flood each cache with several multiples of its capacity in
unique values and assert the caps hold.  And a live call's state must not
grow with the packets sent at it: whatever an attacker keeps sending — the
wrong codec on an established call, requests the specification has no
transition for — is alerted on once and then forgotten.
"""

import gc
import weakref

from repro.efsm import Event, ManualClock
from repro.netsim import Datagram, Endpoint
from repro.sip import SipRequest, SipResponse
from repro.sip.headers import (_parse_cseq, canonical_header_name,
                               name_addr_fields, via_fields)
from repro.sip.message import _split_header_line
from repro.sip.sdp import media_brief
from repro.sip.uri import uri_fields
from repro.vids import DEFAULT_CONFIG, AttackType, Vids
from repro.vids.rtp_machine import ATTACK_CODEC
from repro.vids.sync import RTP_MACHINE, SIP_MACHINE

from .helpers import ack_event, answer_event, invite_event, rtp_event
from .test_checkpoint import make_factbase


def _sdp_body(n):
    port = 10_000 + 2 * n
    return (f"v=0\r\no=- 1 1 IN IP4 10.9.0.1\r\ns=c\r\n"
            f"c=IN IP4 10.9.0.1\r\nt=0 0\r\n"
            f"m=audio {port} RTP/AVP 18\r\na=rtpmap:18 G729/8000\r\n")


#: Every memoizing cache on the parse fast path, with a generator of
#: inputs that are unique per ``n`` (so a flood never repeats a key).
PARSE_CACHES = [
    (canonical_header_name, lambda n: f"X-Custom-{n}"),
    (_split_header_line, lambda n: f"X-Custom-{n}: value-{n}"),
    (uri_fields, lambda n: f"sip:user{n}@host{n}.example.com"),
    (via_fields, lambda n: f"SIP/2.0/UDP 10.9.0.1:5060;branch=z9hG4bKm{n}"),
    (name_addr_fields, lambda n: f"<sip:mu{n}@a.example.com>;tag=mt{n}"),
    (_parse_cseq, lambda n: f"{n} INVITE"),
    (media_brief, _sdp_body),
]


def test_every_parse_cache_declares_a_bound():
    """No parse-path lru_cache may be unbounded (maxsize=None)."""
    for function, _ in PARSE_CACHES:
        info = function.cache_info()
        assert info.maxsize is not None, function.__name__
        assert info.maxsize > 0, function.__name__


def test_parse_caches_hold_their_caps_under_unique_value_floods():
    """3x-capacity unique-value floods never push currsize past maxsize."""
    for function, make_input in PARSE_CACHES:
        cap = function.cache_info().maxsize
        for n in range(3 * cap):
            function(make_input(n))
        info = function.cache_info()
        assert info.currsize <= cap, function.__name__


class _Args(dict):
    """An argument vector that can be weakly referenced (a dict cannot)."""


def test_delivered_event_does_not_outlive_its_delivery():
    """A live call record keeps no firing log: once the caller drops a
    delivered event — and the result of an observable firing, which holds
    it — nothing in the record pins it or its args."""
    base, _, _ = make_factbase()
    record = base.get_or_create("held@x")
    alive = []
    for branch, materialised in (("z9hG4bKh", []),
                                 ("z9hG4bKx", [("sip", True)])):
        args = _Args(call_id="held@x", src_ip="10.1.0.11", branch=branch,
                     sdp_addr="10.1.0.11", sdp_port=20_000, sdp_pts=(18,))
        alive.append(weakref.ref(args))
        fired = record.system.inject(SIP_MACHINE, Event("INVITE", args))
        # The opening INVITE (and its δ) is quiet; a second branch in the
        # same dialog deviates, so its result reaches the caller.
        assert [(r.machine, r.deviation) for r in fired] == materialised
        del args, fired
    gc.collect()
    assert [ref() for ref in alive] == [None, None]
    assert base.records["held@x"] is record
    assert record.system.deliveries == 3


def _flood(record, machine, make_event, count=5000):
    """Inject ``count`` weakly-referenced events; return the live ones."""
    refs = []
    for n in range(count):
        event = make_event(n)
        args = _Args(event.args)
        refs.append(weakref.ref(args))
        record.system.inject(machine, Event(event.name, args))
    del event, args
    gc.collect()
    return [ref for ref in refs if ref() is not None]


def _established_call():
    clock = ManualClock()
    vids = Vids(config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    record = vids.factbase.get_or_create("held@x")
    for event in (invite_event(call_id="held@x"),
                  answer_event(call_id="held@x"),
                  ack_event(call_id="held@x")):
        record.system.inject(SIP_MACHINE, event)
    assert record.sip.state == "Call_Established"
    return vids, record


def test_absorbed_attack_packets_do_not_outlive_their_delivery():
    """5 000 wrong-codec RTP packets on an established call: the attack
    state absorbs each one (an ``attack=True`` self-loop), one alert is
    raised, and the call holds none of the packets while the SIP side
    keeps it alive."""
    vids, record = _established_call()
    alive = _flood(record, RTP_MACHINE,
                   lambda n: rtp_event(pt=0, seq=100 + n, ts=16_000 + 160 * n))
    assert record.rtp.state == ATTACK_CODEC
    assert vids.factbase.get("held@x") is record
    assert alive == []
    assert vids.alert_manager.count() == \
        vids.alert_manager.count(AttackType.CODEC_CHANGE) == 1


def test_deviating_requests_do_not_outlive_their_delivery():
    """5 000 requests the specification has no transition for, sent at an
    established call: each is a deviation, one alert is raised, and the
    call holds none of them."""
    vids, record = _established_call()
    alive = _flood(record, SIP_MACHINE,
                   lambda n: Event("UPDATE", {"call_id": "held@x",
                                              "src_ip": "6.6.6.6",
                                              "dst_ip": "10.2.0.11",
                                              "cseq_num": n}))
    assert record.sip.state == "Call_Established"
    assert alive == []
    assert vids.alert_manager.count() == \
        vids.alert_manager.count(AttackType.SPEC_DEVIATION) == 1


def test_unique_dialog_churn_keeps_the_pipeline_memory_flat():
    """End-to-end: unique complete dialogs leave no per-dialog residue.

    Every call uses fresh identifiers; after the BYE teardown reaps each
    record, the factbase must not retain per-dialog state and every cache
    stays within its cap.
    """
    clock = ManualClock()
    vids = Vids(config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    # UA-to-UA endpoints: the BYE must originate from a recorded
    # participant or teardown is misread as a third-party BYE attack.
    a, b = Endpoint("10.1.0.11", 5060), Endpoint("10.2.0.11", 5060)
    dialogs = 500
    for n in range(dialogs):
        call_id = f"churn{n}@x"
        uri = f"sip:u{n}@b.example.com"
        branch = f"z9hG4bKch{n}"
        from_hdr = f"<sip:alice@a.example.com>;tag=cf{n}"
        offer = _sdp_body(n).replace("10.9.0.1", "10.1.0.11")

        invite = SipRequest("INVITE", uri, body=offer)
        invite.set("Via", f"SIP/2.0/UDP 10.1.0.11:5060;branch={branch}")
        invite.set("From", from_hdr)
        invite.set("To", f"<{uri}>")
        invite.set("Call-ID", call_id)
        invite.set("CSeq", "1 INVITE")
        invite.set("Contact", "<sip:alice@10.1.0.11:5060>")
        invite.set("Content-Type", "application/sdp")

        answer = _sdp_body(n + dialogs).replace("10.9.0.1", "10.2.0.11")
        ok = SipResponse(200, body=answer)
        ok.set("Via", f"SIP/2.0/UDP 10.1.0.11:5060;branch={branch}")
        ok.set("From", from_hdr)
        ok.set("To", f"<{uri}>;tag=ct")
        ok.set("Call-ID", call_id)
        ok.set("CSeq", "1 INVITE")
        ok.set("Contact", "<sip:callee@10.2.0.11:5060>")
        ok.set("Content-Type", "application/sdp")

        ack = SipRequest("ACK", uri)
        ack.set("Via", f"SIP/2.0/UDP 10.1.0.11:5060;branch={branch}a")
        ack.set("From", from_hdr)
        ack.set("To", f"<{uri}>;tag=ct")
        ack.set("Call-ID", call_id)
        ack.set("CSeq", "1 ACK")

        bye = SipRequest("BYE", "sip:alice@a.example.com")
        bye.set("Via", f"SIP/2.0/UDP 10.2.0.11:5060;branch={branch}b")
        bye.set("From", f"<{uri}>;tag=ct")
        bye.set("To", from_hdr)
        bye.set("Call-ID", call_id)
        bye.set("CSeq", "2 BYE")

        done = SipResponse(200)
        done.set("Via", f"SIP/2.0/UDP 10.2.0.11:5060;branch={branch}b")
        done.set("From", f"<{uri}>;tag=ct")
        done.set("To", from_hdr)
        done.set("Call-ID", call_id)
        done.set("CSeq", "2 BYE")

        for src, dst, message in ((a, b, invite), (b, a, ok), (a, b, ack),
                                  (b, a, bye), (a, b, done)):
            clock.advance(0.01)
            vids.process(Datagram(src, dst, message.serialize()),
                         clock.now())

    assert vids.metrics.calls_created >= dialogs
    base = vids.factbase
    # Let the closed-record linger timers fire: torn-down dialogs are
    # reaped, so live records track the set of still-open calls, not the
    # dialog count.
    clock.advance(2 * DEFAULT_CONFIG.closed_record_linger)
    assert len(base) < dialogs / 5
    for function, _ in PARSE_CACHES:
        info = function.cache_info()
        assert info.currsize <= info.maxsize, function.__name__
