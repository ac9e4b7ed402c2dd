"""Behavioural tests for the per-call SIP protocol state machine."""

import pytest

from repro.efsm import ManualClock, verify_machine
from repro.vids import DEFAULT_CONFIG, build_rtp_machine, build_sip_machine
from repro.vids.sip_machine import (
    ATTACK_BYE,
    ATTACK_CANCEL,
    ATTACK_HIJACK,
)
from repro.vids.sync import (
    DELTA_BYE,
    DELTA_SESSION_ANSWER,
    DELTA_SESSION_OFFER,
    RTP_MACHINE,
    SIP_MACHINE,
)

from .helpers import (
    ATTACKER_IP,
    CALLEE_IP,
    CALLER_IP,
    RecordingSystem,
    ack_event,
    answer_event,
    bye_event,
    cancel_event,
    invite_event,
    response_event,
)


def make_system(config=DEFAULT_CONFIG):
    clock = ManualClock()
    system = RecordingSystem(clock_now=clock.now,
                             timer_scheduler=clock.schedule)
    system.add_machine(build_sip_machine(config))
    system.add_machine(build_rtp_machine(config))
    return system, clock


def sip_state(system):
    return system.machines[SIP_MACHINE].state


def inject(system, event):
    return system.inject(SIP_MACHINE, event)


def establish(system):
    inject(system, invite_event())
    inject(system, response_event(180))
    inject(system, answer_event())
    inject(system, ack_event())
    assert sip_state(system) == "Call_Established"


class TestNormalLifecycle:
    def test_full_call_no_deviations_no_attacks(self):
        system, clock = make_system()
        establish(system)
        inject(system, bye_event())
        inject(system, response_event(200, cseq_method="BYE",
                                      src_ip=CALLER_IP))
        assert sip_state(system) == "Closed"
        assert system.deviations == []
        assert system.attack_matches == []

    def test_invite_stores_locals_and_media_globals(self):
        system, clock = make_system()
        inject(system, invite_event())
        machine = system.machines[SIP_MACHINE]
        assert machine.state == "INVITE_Rcvd"
        assert machine.variables["call_id"].startswith("call-1")
        assert machine.variables["invite_branch"] == "z9hG4bKi1"
        assert CALLER_IP in machine.variables["participants"]
        assert system.globals["g_offer_addr"] == CALLER_IP
        assert system.globals["g_offer_port"] == 20_000
        assert system.globals["g_offer_pts"] == (18,)

    def test_invite_emits_offer_delta(self):
        system, clock = make_system()
        fired = inject(system, invite_event())
        delta = [f for f in fired if f.machine == RTP_MACHINE]
        assert delta and delta[0].event.name == DELTA_SESSION_OFFER
        assert system.machines[RTP_MACHINE].state == "RTP_Open"

    def test_answer_publishes_callee_media(self):
        system, clock = make_system()
        inject(system, invite_event())
        fired = inject(system, answer_event())
        assert system.globals["g_answer_addr"] == CALLEE_IP
        assert system.globals["g_answer_port"] == 20_002
        names = [f.event.name for f in fired if f.machine == RTP_MACHINE]
        assert DELTA_SESSION_ANSWER in names

    def test_direct_answer_without_provisional(self):
        system, clock = make_system()
        inject(system, invite_event())
        inject(system, answer_event())
        assert sip_state(system) == "Answered"

    def test_participants_accumulate_from_answer(self):
        system, clock = make_system()
        establish(system)
        participants = system.machines[SIP_MACHINE].variables["participants"]
        assert CALLER_IP in participants
        assert CALLEE_IP in participants


class TestRetransmissionsAreNotDeviations:
    def test_invite_retransmission(self):
        system, clock = make_system()
        inject(system, invite_event())
        inject(system, invite_event())   # same branch
        assert sip_state(system) == "INVITE_Rcvd"
        assert system.deviations == []

    def test_1xx_retransmission(self):
        system, clock = make_system()
        inject(system, invite_event())
        inject(system, response_event(180))
        inject(system, response_event(183))
        assert sip_state(system) == "Proceeding"
        assert system.deviations == []

    def test_200_retransmission_in_answered(self):
        system, clock = make_system()
        inject(system, invite_event())
        inject(system, answer_event())
        inject(system, answer_event())
        assert sip_state(system) == "Answered"
        assert system.deviations == []

    def test_ack_and_bye_retransmissions(self):
        system, clock = make_system()
        establish(system)
        inject(system, ack_event())
        inject(system, bye_event())
        inject(system, bye_event())
        inject(system, response_event(200, cseq_method="BYE"))
        inject(system, response_event(200, cseq_method="BYE"))
        inject(system, bye_event())
        assert sip_state(system) == "Closed"
        assert system.deviations == []


class TestFailures:
    @pytest.mark.parametrize("status", [404, 486, 487, 503, 603])
    def test_final_failure_goes_to_failed(self, status):
        system, clock = make_system()
        inject(system, invite_event())
        inject(system, response_event(180))
        inject(system, response_event(status))
        assert sip_state(system) == "Failed"
        inject(system, ack_event())      # non-2xx ACK absorbed
        assert system.deviations == []

    def test_in_dialog_invite_for_unknown_call_is_deviation(self):
        system, clock = make_system()
        inject(system, invite_event(to_tag="tt"))
        assert sip_state(system) == "INIT"
        assert len(system.deviations) == 1


class TestCancel:
    def test_cancel_from_invite_path_is_legitimate(self):
        system, clock = make_system()
        inject(system, invite_event())
        inject(system, response_event(180))
        inject(system, cancel_event())   # from the proxy, like the INVITE
        assert sip_state(system) == "Cancelling"
        inject(system, response_event(200, cseq_method="CANCEL"))
        inject(system, response_event(487))
        assert sip_state(system) == "Cancelled"
        inject(system, ack_event())
        assert system.attack_matches == []
        assert system.deviations == []

    def test_cancel_from_third_party_is_attack(self):
        system, clock = make_system()
        inject(system, invite_event())
        inject(system, cancel_event(src_ip=ATTACKER_IP))
        assert sip_state(system) == ATTACK_CANCEL
        assert len(system.attack_matches) == 1

    def test_cancel_race_with_200(self):
        system, clock = make_system()
        inject(system, invite_event())
        inject(system, cancel_event())
        inject(system, answer_event())   # callee answered anyway
        assert sip_state(system) == "Answered"


class TestByeAttacks:
    def test_bye_from_participant_is_legitimate(self):
        system, clock = make_system()
        establish(system)
        fired = inject(system, bye_event(src_ip=CALLEE_IP))
        assert sip_state(system) == "Teardown_Begins"
        names = [f.event.name for f in fired if f.machine == RTP_MACHINE]
        assert DELTA_BYE in names
        assert system.globals["g_bye_src_ip"] == CALLEE_IP

    def test_bye_from_third_party_is_attack(self):
        system, clock = make_system()
        establish(system)
        inject(system, bye_event(src_ip=ATTACKER_IP))
        assert sip_state(system) == ATTACK_BYE
        assert len(system.attack_matches) == 1

    def test_attack_state_absorbs_followup_traffic(self):
        system, clock = make_system()
        establish(system)
        inject(system, bye_event(src_ip=ATTACKER_IP))
        inject(system, bye_event(src_ip=CALLEE_IP))
        inject(system, response_event(200, cseq_method="BYE"))
        assert sip_state(system) == ATTACK_BYE
        assert system.deviations == []
        # Only the entry transition counts as a state change.
        entries = [r for r in system.attack_matches
                   if r.from_state != r.to_state]
        assert len(entries) == 1


class TestHijack:
    def test_reinvite_from_participant_updates_media(self):
        system, clock = make_system()
        establish(system)
        inject(system, invite_event(src_ip=CALLER_IP, to_tag="tt",
                                    branch="z9hG4bKr2", cseq_num=2,
                                    sdp_port=24_000))
        assert sip_state(system) == "Call_Established"
        assert system.globals["g_offer_port"] == 24_000
        assert system.attack_matches == []

    def test_reinvite_from_third_party_is_hijack(self):
        system, clock = make_system()
        establish(system)
        inject(system, invite_event(src_ip=ATTACKER_IP, to_tag="tt",
                                    branch="z9hG4bKevil", cseq_num=2,
                                    via_hosts=(ATTACKER_IP,),
                                    contact_host=None, sdp_addr=ATTACKER_IP,
                                    sdp_port=55_000))
        assert sip_state(system) == ATTACK_HIJACK


class TestCrossProtocolAblation:
    def test_no_deltas_when_cross_protocol_disabled(self):
        config = DEFAULT_CONFIG.with_overrides(cross_protocol=False)
        system, clock = make_system(config)
        fired = inject(system, invite_event())
        assert all(f.machine == SIP_MACHINE for f in fired)
        assert system.machines[RTP_MACHINE].state == "INIT"
        inject(system, answer_event())
        inject(system, ack_event())
        inject(system, bye_event())
        assert system.machines[RTP_MACHINE].state == "INIT"


def test_machine_is_deterministic():
    # Exact over every valuation (Definition 1), not a sample of them.
    assert not [finding for finding in verify_machine(build_sip_machine())
                if finding.rule == "nondeterministic-overlap"]


class TestTaglessFrom:
    """A From header without a tag: the event carries ``from_tag=None``
    and the machine keeps the declared default ``''`` — not the
    four-character string ``'None'``."""

    def test_stored_as_the_declared_default(self):
        from repro.sip import parse_message
        from repro.vids import sip_event_from_message

        from .test_ids import invite_bytes

        wire = invite_bytes().replace(b";tag=ft", b"")
        event = sip_event_from_message(parse_message(wire),
                                       (CALLER_IP, 5060), (CALLEE_IP, 5060),
                                       now=0.0)
        assert event.args["from_tag"] is None
        system, _ = make_system()
        inject(system, event)
        assert sip_state(system) == "INVITE_Rcvd"
        assert system.machines[SIP_MACHINE].variables["from_tag"] == ""
        tagged = sip_event_from_message(parse_message(invite_bytes()),
                                        (CALLER_IP, 5060), (CALLEE_IP, 5060),
                                        now=0.0)
        system, _ = make_system()
        inject(system, tagged)
        assert system.machines[SIP_MACHINE].variables["from_tag"] == "ft"
