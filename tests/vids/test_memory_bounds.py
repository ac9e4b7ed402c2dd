"""Carrier-scale memory bounds: parse caches and the intern pool are capped.

Under carrier traffic (or an attacker minting identifiers), dialog values
never repeat — a day of calls is a million unique Call-IDs, tags, and
branches.  Every value-level parse cache in the SIP fast path and the
per-factbase intern pool must therefore hold at its declared cap instead
of growing with the traffic.  These tests flood each cache with several
multiples of its capacity in unique values and assert the caps hold, and
drive a million unique dialog identifiers at the intern pool directly.
"""

import gc
import weakref

from repro.efsm import Event, ManualClock
from repro.netsim import Datagram, Endpoint
from repro.sip import SipRequest, SipResponse
from repro.sip.headers import (_name_addr_fields, _via_fields,
                               canonical_header_name, cseq_brief,
                               name_addr_brief, via_brief)
from repro.sip.message import _split_header_line
from repro.sip.uri import _parse_uri
from repro.vids import DEFAULT_CONFIG, Vids
from repro.vids.distributor import _sdp_media_fields
from repro.vids.factbase import _INTERN_CAP, CallStateFactBase
from repro.vids.sync import SIP_MACHINE


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
    (_parse_uri, lambda n: f"sip:user{n}@host{n}.example.com"),
    (_via_fields, lambda n: f"SIP/2.0/UDP 10.9.0.1:5060;branch=z9hG4bKm{n}"),
    (via_brief, lambda n: f"SIP/2.0/UDP 10.9.0.2:5060;branch=z9hG4bKn{n}"),
    (_name_addr_fields, lambda n: f"<sip:mu{n}@a.example.com>;tag=mt{n}"),
    (name_addr_brief, lambda n: f"<sip:mv{n}@b.example.com>;tag=mu{n}"),
    (cseq_brief, lambda n: f"{n} INVITE"),
    (_sdp_media_fields, _sdp_body),
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


def make_factbase():
    clock = ManualClock()
    base = CallStateFactBase(DEFAULT_CONFIG, clock.now, clock.schedule)
    return base, clock


def test_million_unique_dialogs_cap_the_intern_pool():
    """A million never-repeating dialog identifiers: pool stops at the cap.

    Past the cap, values pass through uninterned (same object returned)
    rather than evicting live entries or growing without bound.
    """
    base, _ = make_factbase()
    for n in range(1_000_000):
        base.intern_value(f"dlg-{n}@pbx.example.com")
    assert len(base._interned) == _INTERN_CAP
    overflow = "overflow@pbx.example.com"
    assert base.intern_value(overflow) is overflow
    assert len(base._interned) == _INTERN_CAP


def test_call_deletion_evicts_the_interned_call_id():
    base, _ = make_factbase()
    call_id = base.intern_value("gone-1@pbx.example.com")
    base.get_or_create(call_id)
    assert call_id in base._interned
    base.delete(call_id)
    assert call_id not in base._interned


class _Args(dict):
    """An argument vector that can be weakly referenced (a dict cannot)."""


def test_delivered_event_does_not_outlive_its_delivery():
    """A live call record keeps no firing log: once the caller drops a
    delivered event, nothing in the record pins it or its args."""
    base, _ = make_factbase()
    record = base.get_or_create("held@x")
    args = _Args(call_id="held@x", src_ip="10.1.0.11", branch="z9hG4bKh",
                 sdp_addr="10.1.0.11", sdp_port=20_000, sdp_pts=(18,))
    alive = weakref.ref(args)
    fired = record.system.inject(SIP_MACHINE, Event("INVITE", args))
    assert [(r.machine, r.deviation) for r in fired] == [
        ("sip", False), ("rtp", False)]
    del args, fired
    gc.collect()
    assert alive() is None
    assert base.records["held@x"] is record
    assert record.system.deliveries == 2


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
    # reaped, so live records and the intern pool track the set of
    # still-open calls, not the dialog count.
    clock.advance(2 * DEFAULT_CONFIG.closed_record_linger)
    assert len(base) < dialogs / 5
    assert len(base._interned) <= max(64, 2 * len(base))
    for function, _ in PARSE_CACHES:
        info = function.cache_info()
        assert info.currsize <= info.maxsize, function.__name__
