"""Conformance property: legal signaling traces never alarm.

A generator produces *legal* perimeter event traces — full call flows with
optional provisional responses, retransmissions of any message, CANCEL
races, and in-flight media — and the per-call machine system must accept
every one of them with zero deviations and zero attack matches.  This is
the specification-completeness property behind the paper's zero-false-
positive claim.
"""

from hypothesis import given, settings, strategies as st

from repro.efsm import ManualClock
from repro.vids import DEFAULT_CONFIG, build_rtp_machine, build_sip_machine
from repro.vids.sync import RTP_MACHINE, SIP_MACHINE

from tests.vids.helpers import (
    CALLEE_IP,
    CALLER_IP,
    RecordingSystem,
    ack_event,
    answer_event,
    bye_event,
    cancel_event,
    invite_event,
    response_event,
    rtp_event,
)


@st.composite
def legal_trace(draw):
    """(events_for_sip, media_bursts) forming one legal call history."""
    sip_events = []
    # Setup: INVITE (+ optional retransmissions), optional 1xx (+ repeats).
    invites = draw(st.integers(1, 3))
    sip_events.extend(invite_event() for _ in range(invites))
    for _ in range(draw(st.integers(0, 2))):
        sip_events.append(response_event(draw(st.sampled_from([180, 183]))))

    outcome = draw(st.sampled_from(["answer", "cancel", "reject"]))
    media = False
    if outcome == "reject":
        sip_events.append(response_event(draw(st.sampled_from([404, 486,
                                                               603]))))
        sip_events.append(ack_event())
    elif outcome == "cancel":
        sip_events.append(cancel_event())
        sip_events.append(response_event(200, cseq_method="CANCEL"))
        sip_events.append(response_event(487))
        sip_events.append(ack_event())
    else:
        for _ in range(draw(st.integers(1, 2))):     # 200 (+ retransmit)
            sip_events.append(answer_event())
        for _ in range(draw(st.integers(1, 2))):     # ACK (+ retransmit)
            sip_events.append(ack_event())
        media = True

    teardown = []
    if media:
        # Either side hangs up; BYE may retransmit; 200 may repeat.
        src = draw(st.sampled_from([CALLER_IP, CALLEE_IP]))
        dst = CALLEE_IP if src == CALLER_IP else CALLER_IP
        for _ in range(draw(st.integers(1, 2))):
            teardown.append(bye_event(src_ip=src, dst_ip=dst))
        for _ in range(draw(st.integers(1, 2))):
            teardown.append(response_event(200, cseq_method="BYE",
                                           src_ip=dst))
    n_media = draw(st.integers(0, 30)) if media else 0
    return sip_events, teardown, n_media


@given(legal_trace())
@settings(max_examples=80, deadline=None)
def test_legal_traces_produce_no_deviations_or_attacks(trace):
    sip_events, teardown, n_media = trace
    clock = ManualClock()
    system = RecordingSystem(clock_now=clock.now,
                             timer_scheduler=clock.schedule)
    system.add_machine(build_sip_machine(DEFAULT_CONFIG))
    system.add_machine(build_rtp_machine(DEFAULT_CONFIG))

    for event in sip_events:
        clock.advance(0.05)
        system.inject(SIP_MACHINE, event)
    for index in range(n_media):
        clock.advance(0.02)
        system.inject(RTP_MACHINE,
                      rtp_event(seq=index + 1, ts=(index + 1) * 160,
                                time=clock.now()))
    for event in teardown:
        clock.advance(0.05)
        system.inject(SIP_MACHINE, event)
    # A couple of in-flight media packets right after the BYE are legal.
    if teardown:
        for extra in range(2):
            clock.advance(0.01)
            system.inject(RTP_MACHINE,
                          rtp_event(seq=n_media + extra + 1,
                                    ts=(n_media + extra + 1) * 160,
                                    time=clock.now()))

    assert system.deviations == [], [
        (r.machine, r.from_state, r.event.name) for r in system.deviations]
    assert system.attack_matches == []
    # After teardown the whole system converges to final states.
    if teardown:
        clock.advance(DEFAULT_CONFIG.bye_inflight_timer + 0.1)
        assert system.all_final
