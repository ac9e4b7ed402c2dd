"""Compiled-vs-probed dispatch equivalence over the attack scenario suite.

The compiled per-(state, event, channel) dispatch tables are the only
delivery path in ``src/``; the reference — probe *every* candidate's guard
with the tree interpreter, raise on two — shadows each delivery from the
test side (``tests/efsm/oracle.py``) and asserts the real ``step`` fired
the transition it enabled.  Each scenario also runs once bare: identical
alert multisets, identical firing sequences (machine, event, from-state,
to-state, transition label, deviation/attack flags, outputs) and identical
counters prove the shadow observes without perturbing.
"""

from contextlib import contextmanager

from repro.efsm import ManualClock
from repro.efsm.machine import EfsmInstance
from repro.sip import SipRequest
from repro.vids import DEFAULT_CONFIG, Vids

from ..efsm.oracle import firing_record, shadow_dispatch
from .test_ids import (ATTACKER, CALLEE, CALLER, PROXY_A, PROXY_B, ack_bytes,
                       bye_bytes, dgram, establish_call, invite_bytes,
                       response_bytes, rtp_bytes, stream_media)


@contextmanager
def capture_firings(log):
    """Record every machine firing of a bare (unshadowed) run, quiet ones
    included: each is materialised for the log, then handed back as the
    compiled entry's own observable flag says."""
    original = EfsmInstance.step

    def recording_step(self, event, quiet):
        candidates = self.definition._compiled.get(
            (self.state, event.name, event.channel), ())
        result, outputs = original(self, event, None)
        log.append(firing_record(result))
        if quiet is not None and any(
                transition is result.transition and not observable
                for _, transition, _, observable in candidates):
            quiet()
            return None, outputs
        return result, outputs

    EfsmInstance.step = recording_step
    try:
        yield
    finally:
        EfsmInstance.step = original


def cancel_bytes(call_id, branch="z9hG4bKe1", src=ATTACKER):
    request = SipRequest("CANCEL", "sip:bob@b.example.com")
    request.set("Via", f"SIP/2.0/UDP {src}:5060;branch={branch}")
    request.set("From", "<sip:alice@a.example.com>;tag=ft")
    request.set("To", "<sip:bob@b.example.com>")
    request.set("Call-ID", call_id)
    request.set("CSeq", "1 CANCEL")
    return request.serialize()


def hijack_invite_bytes(call_id):
    """In-dialog INVITE (has a To tag) arriving from a non-participant."""
    request = SipRequest("INVITE", "sip:bob@b.example.com")
    request.set("Via", f"SIP/2.0/UDP {ATTACKER}:5060;branch=z9hG4bKhj")
    request.set("From", "<sip:alice@a.example.com>;tag=ft")
    request.set("To", "<sip:bob@b.example.com>;tag=tt")
    request.set("Call-ID", call_id)
    request.set("CSeq", "2 INVITE")
    return request.serialize()


# ---- one driver per attack scenario (distinct Vids per run keeps the
# ---- media index and flood counters independent across scenarios) ------

def drive_benign_call(vids, clock):
    establish_call(vids, clock)
    stream_media(vids, clock, count=10)
    vids.process(dgram(bye_bytes(), CALLEE, CALLER), clock.now())
    vids.process(dgram(response_bytes(200, cseq="2 BYE"), CALLER, CALLEE),
                 clock.now())
    clock.advance(DEFAULT_CONFIG.bye_inflight_timer + 0.1)


def drive_invite_flood(vids, clock):
    for index in range(DEFAULT_CONFIG.invite_flood_threshold + 3):
        vids.process(
            dgram(invite_bytes(call_id=f"flood{index}@x",
                               branch=f"z9hG4bKf{index}"),
                  ATTACKER, PROXY_B),
            clock.now())
        clock.advance(0.01)


def drive_toll_fraud(vids, clock):
    establish_call(vids, clock)
    stream_media(vids, clock, count=5)
    vids.process(dgram(bye_bytes(), CALLEE, CALLER), clock.now())
    clock.advance(DEFAULT_CONFIG.bye_inflight_timer + 0.05)
    vids.process(dgram(rtp_bytes(ssrc=0xBBBB, seq=900, ts=90_000),
                       CALLEE, CALLER, 20_002, 20_000), clock.now())


def drive_bye_dos_via_media(vids, clock):
    establish_call(vids, clock)
    stream_media(vids, clock, count=5)
    vids.process(dgram(bye_bytes(), CALLEE, CALLER), clock.now())
    clock.advance(DEFAULT_CONFIG.bye_inflight_timer + 0.05)
    vids.process(dgram(rtp_bytes(ssrc=0xAAAA, seq=900, ts=900 * 160),
                       CALLER, CALLEE, 20_000, 20_002), clock.now())


def drive_third_party_bye(vids, clock):
    establish_call(vids, clock)
    vids.process(dgram(bye_bytes(), ATTACKER, CALLER), clock.now())


def drive_media_spam(vids, clock):
    establish_call(vids, clock)
    stream_media(vids, clock, count=5)
    vids.process(dgram(rtp_bytes(ssrc=0xAAAA, seq=2005, ts=400_000),
                       ATTACKER, CALLEE, 20_000, 20_002), clock.now())


def drive_codec_change(vids, clock):
    establish_call(vids, clock)
    stream_media(vids, clock, count=5)
    stream_media(vids, clock, count=1, start_seq=6, pt=0)


def drive_unsolicited_media(vids, clock):
    for index in range(DEFAULT_CONFIG.unsolicited_media_threshold + 2):
        clock.advance(0.02)
        vids.process(dgram(rtp_bytes(seq=index, ts=index * 160),
                           ATTACKER, CALLEE, 40_000, 31_337), clock.now())


def drive_stray_bye(vids, clock):
    vids.process(dgram(bye_bytes(call_id="ghost@x"), ATTACKER, CALLEE),
                 clock.now())


def drive_premature_ack(vids, clock):
    """ACK before any response: no receivable transition, a deviation."""
    vids.process(dgram(invite_bytes(), PROXY_A, PROXY_B), clock.now())
    clock.advance(0.05)
    vids.process(dgram(ack_bytes(), CALLER, CALLEE), clock.now())


def drive_stray_response_in_setup(vids, clock):
    """A 200 to a BYE nobody sent, while the INVITE is still proceeding:
    no candidate of the (Proceeding, RESPONSE) group is enabled, so a
    guard that dispatch holds true where the interpreter does not shows
    here."""
    vids.process(dgram(invite_bytes(), PROXY_A, PROXY_B), clock.now())
    clock.advance(0.05)
    vids.process(dgram(response_bytes(180), PROXY_B, PROXY_A), clock.now())
    clock.advance(0.05)
    vids.process(dgram(response_bytes(200, cseq="1 BYE"), PROXY_B, PROXY_A),
                 clock.now())


def drive_cancel_dos(vids, clock):
    vids.process(dgram(invite_bytes(), PROXY_A, PROXY_B), clock.now())
    clock.advance(0.05)
    vids.process(dgram(response_bytes(180), PROXY_B, PROXY_A), clock.now())
    clock.advance(0.05)
    vids.process(dgram(cancel_bytes(call_id=invite_call_id()), ATTACKER,
                       PROXY_B), clock.now())


def drive_hijack_invite(vids, clock):
    establish_call(vids, clock)
    vids.process(dgram(hijack_invite_bytes(invite_call_id()), ATTACKER,
                       PROXY_B), clock.now())


def invite_call_id():
    from .test_ids import CALL_ID
    return CALL_ID


SCENARIOS = [
    drive_benign_call,
    drive_invite_flood,
    drive_toll_fraud,
    drive_bye_dos_via_media,
    drive_third_party_bye,
    drive_media_spam,
    drive_codec_change,
    drive_unsolicited_media,
    drive_stray_bye,
    drive_premature_ack,
    drive_stray_response_in_setup,
    drive_cancel_dos,
    drive_hijack_invite,
]


def run_scenario(driver, recorder=capture_firings):
    """One scenario, its deliveries recorded by ``recorder``:
    (alerts, firings, counters)."""
    clock = ManualClock()
    vids = Vids(config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    firings = []
    with recorder(firings):
        driver(vids, clock)
    alerts = sorted((alert.attack_type.value, alert.call_id)
                    for alert in vids.alerts)
    counters = (vids.metrics.sip_messages, vids.metrics.rtp_packets,
                vids.metrics.calls_created, vids.metrics.calls_deleted)
    return alerts, firings, counters


def test_compiled_and_probed_dispatch_are_equivalent():
    shadowed = 0
    for driver in SCENARIOS:
        compiled = run_scenario(driver)
        # Every delivery of this run is checked against the interpreter.
        probed = run_scenario(driver, recorder=shadow_dispatch)
        shadowed += len(probed[1])
        name = driver.__name__
        assert compiled[0] == probed[0], f"{name}: alert multisets differ"
        assert compiled[1] == probed[1], f"{name}: firing sequences differ"
        assert compiled[2] == probed[2], f"{name}: metrics differ"
    assert shadowed > 100       # (a stray BYE alone reaches no machine)


def test_suite_exercises_attacks_and_deviations():
    """The equivalence corpus is only meaningful if it covers attack,
    benign, and deviation paths — pin that it does."""
    kinds = set()
    fired_attack = fired_deviation = False
    for driver in SCENARIOS:
        alerts, firings, _ = run_scenario(driver)
        kinds.update(kind for kind, _ in alerts)
        fired_attack = fired_attack or any(f[6] for f in firings)
        fired_deviation = fired_deviation or any(f[5] for f in firings)
    assert fired_attack and fired_deviation
    assert {"invite-flood", "bye-dos", "toll-fraud", "media-spam",
            "codec-change", "unsolicited-media"} <= kinds
