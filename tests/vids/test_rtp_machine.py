"""Behavioural tests for the per-call RTP protocol state machine."""


from repro.efsm import Event, ManualClock
from repro.vids import DEFAULT_CONFIG, build_rtp_machine, build_sip_machine
from repro.vids.rtp_machine import (
    ATTACK_AFTER_CLOSE,
    ATTACK_CODEC,
    ATTACK_FLOOD,
    ATTACK_SPAM,
)
from repro.vids.sync import (
    DELTA_BYE,
    DELTA_CANCELLED,
    DELTA_SESSION_ANSWER,
    DELTA_SESSION_OFFER,
    RTP_MACHINE,
    SIP_TO_RTP,
)

from .helpers import RecordingSystem, rtp_event

CONFIG = DEFAULT_CONFIG


def make_rtp_system(config=CONFIG):
    """An RTP machine alone, driven by hand-crafted δ events."""
    clock = ManualClock()
    system = RecordingSystem(clock_now=clock.now,
                             timer_scheduler=clock.schedule)
    system.add_machine(build_sip_machine(config))
    system.add_machine(build_rtp_machine(config))
    return system, clock


def send_delta(system, name, **args):
    """Deliver a δ on the SIP->RTP channel, as the SIP machine's step
    would."""
    return system.inject(RTP_MACHINE, Event(name, args, channel=SIP_TO_RTP))


def open_session(system):
    system.globals.update(
        g_offer_addr="10.1.0.11", g_offer_port=20_000, g_offer_pts=(18,),
        g_answer_addr="10.2.0.11", g_answer_port=20_002, g_answer_pts=(18,),
        g_ptime_ms=20,
    )
    send_delta(system, DELTA_SESSION_OFFER, call_id="c1")
    send_delta(system, DELTA_SESSION_ANSWER, call_id="c1")
    return system


def rtp_state(system):
    return system.machines[RTP_MACHINE].state


def inject_rtp(system, event):
    return system.inject(RTP_MACHINE, event)


class TestLifecycle:
    def test_media_before_offer_is_deviation(self):
        system, clock = make_rtp_system()
        result = inject_rtp(system, rtp_event())
        assert result[-1].deviation
        assert rtp_state(system) == "INIT"

    def test_offer_opens_then_media_activates(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=1, ts=160))
        assert rtp_state(system) == "RTP_Rcvd"
        assert system.deviations == []

    def test_clean_stream_stays_active(self):
        system, clock = make_rtp_system()
        open_session(system)
        for index in range(50):
            clock.advance(0.02)
            inject_rtp(system, rtp_event(seq=index, ts=index * 160,
                                         time=clock.now()))
        assert rtp_state(system) == "RTP_Rcvd"
        assert system.attack_matches == []

    def test_small_loss_gaps_tolerated(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=10, ts=1600))
        inject_rtp(system, rtp_event(seq=14, ts=2400))  # 3 lost packets
        assert rtp_state(system) == "RTP_Rcvd"
        assert system.attack_matches == []

    def test_silence_gap_tolerated(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=1, ts=160))
        # 6 s VAD silence = 48 000 ts units < Δt.
        inject_rtp(system, rtp_event(seq=2, ts=160 + 48_000))
        assert system.attack_matches == []

    def test_cancel_closes_without_media(self):
        system, clock = make_rtp_system()
        send_delta(system, DELTA_SESSION_OFFER, call_id="c1")
        send_delta(system, DELTA_CANCELLED, call_id="c1")
        inject_rtp(system, rtp_event())
        assert rtp_state(system) == ATTACK_AFTER_CLOSE


class TestByeDos:
    def test_inflight_media_within_timer_t_is_legitimate(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=1, ts=160))
        send_delta(system, DELTA_BYE, call_id="c1", src_ip="10.2.0.11")
        inject_rtp(system, rtp_event(seq=2, ts=320))   # in flight
        assert rtp_state(system) == "RTP_rcvd_after_BYE"
        assert system.attack_matches == []

    def test_timer_t_closes_session(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=1, ts=160))
        send_delta(system, DELTA_BYE, call_id="c1")
        inject_rtp(system, rtp_event(seq=2, ts=320))
        clock.advance(CONFIG.bye_inflight_timer + 0.01)
        assert rtp_state(system) == "RTP_Close"

    def test_media_after_close_is_attack(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=1, ts=160))
        send_delta(system, DELTA_BYE, call_id="c1")
        inject_rtp(system, rtp_event(seq=2, ts=320))
        clock.advance(CONFIG.bye_inflight_timer + 0.01)
        inject_rtp(system, rtp_event(seq=3, ts=480))
        assert rtp_state(system) == ATTACK_AFTER_CLOSE
        entries = [r for r in system.attack_matches
                   if r.from_state != r.to_state]
        assert len(entries) == 1

    def test_bye_retransmission_does_not_rearm_confusion(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=1, ts=160))
        send_delta(system, DELTA_BYE, call_id="c1")
        send_delta(system, DELTA_BYE, call_id="c1")   # retransmit
        inject_rtp(system, rtp_event(seq=2, ts=320))
        assert rtp_state(system) == "RTP_rcvd_after_BYE"
        assert system.deviations == []


class TestMediaSpam:
    def test_sequence_jump_detected(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=100, ts=16_000))
        inject_rtp(system, rtp_event(
            seq=100 + CONFIG.media_spam_seq_gap + 1, ts=16_160))
        assert rtp_state(system) == ATTACK_SPAM

    def test_timestamp_jump_detected(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=100, ts=16_000))
        inject_rtp(system, rtp_event(
            seq=101, ts=16_000 + CONFIG.media_spam_ts_gap + 1))
        assert rtp_state(system) == ATTACK_SPAM

    def test_foreign_ssrc_detected(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(ssrc=1111, seq=1, ts=160))
        inject_rtp(system, rtp_event(ssrc=2222, seq=2, ts=320))
        assert rtp_state(system) == ATTACK_SPAM

    def test_directions_tracked_independently(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(ssrc=1111, seq=1, ts=160,
                                     direction="to_callee"))
        inject_rtp(system, rtp_event(ssrc=2222, seq=5000, ts=999_000,
                                     direction="to_caller",
                                     src_ip="10.2.0.11", dst_ip="10.1.0.11"))
        assert rtp_state(system) == "RTP_Rcvd"
        assert system.attack_matches == []


class TestFloodAndCodec:
    def test_unnegotiated_payload_type_detected(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=1, ts=160))
        inject_rtp(system, rtp_event(seq=2, ts=320, pt=0))   # PCMU not offered
        assert rtp_state(system) == ATTACK_CODEC

    def test_unnegotiated_payload_type_on_first_packet(self):
        system, clock = make_rtp_system()
        open_session(system)
        inject_rtp(system, rtp_event(seq=1, ts=160, pt=96))
        assert rtp_state(system) == ATTACK_CODEC

    def test_rate_flood_detected(self):
        system, clock = make_rtp_system()
        open_session(system)
        # Expected 50 pps at 20 ms ptime; factor 2.5 -> 125/s threshold.
        limit = int(2.5 * 50 * CONFIG.rtp_flood_window)
        for index in range(limit + 10):
            clock.advance(0.001)   # 1000 pps
            inject_rtp(system, rtp_event(seq=index, ts=index * 160,
                                         time=clock.now()))
            if rtp_state(system) == ATTACK_FLOOD:
                break
        assert rtp_state(system) == ATTACK_FLOOD

    def test_normal_rate_never_floods(self):
        system, clock = make_rtp_system()
        open_session(system)
        for index in range(200):
            clock.advance(0.02)    # exactly the negotiated 50 pps
            inject_rtp(system, rtp_event(seq=index, ts=index * 160,
                                         time=clock.now()))
        assert rtp_state(system) == "RTP_Rcvd"


def test_codec_detection_can_be_disabled():
    config = DEFAULT_CONFIG.with_overrides(detect_codec_change=False)
    system, clock = make_rtp_system(config)
    open_session(system)
    inject_rtp(system, rtp_event(seq=1, ts=160, pt=96))
    assert rtp_state(system) == "RTP_Rcvd"
