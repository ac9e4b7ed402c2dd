"""Unit tests for the Attack Scenario table (Figure-3 component)."""

from repro.vids import AttackType, BUILTIN_SCENARIOS, SCENARIOS
from repro.vids.rtp_machine import (ATTACK_AFTER_CLOSE, ATTACK_SPAM,
                                    ATTACK_TOLL_FRAUD)
from repro.vids.scenarios import INVITE_FLOOD
from repro.vids.sip_machine import ATTACK_BYE, ATTACK_CANCEL, ATTACK_HIJACK


def test_builtin_scenarios_cover_every_threat():
    assert set(AttackType) - {scenario.attack_type for scenario
                              in BUILTIN_SCENARIOS} == {
        AttackType.SPEC_DEVIATION, AttackType.PROTOCOL_FUZZING,
        AttackType.OVERLOAD_SHED, AttackType.IDS_INTERNAL}


def test_state_lookup_maps_machine_states():
    for key, attack_type in {
            ("sip", ATTACK_BYE): AttackType.BYE_DOS,
            ("sip", ATTACK_CANCEL): AttackType.CANCEL_DOS,
            ("sip", ATTACK_HIJACK): AttackType.CALL_HIJACK,
            ("rtp", ATTACK_SPAM): AttackType.MEDIA_SPAM,
            ("rtp", ATTACK_AFTER_CLOSE): AttackType.BYE_DOS,
            ("rtp", ATTACK_TOLL_FRAUD): AttackType.TOLL_FRAUD}.items():
        assert SCENARIOS[key].attack_type is attack_type, key
    assert ("sip", "NoSuchState") not in SCENARIOS


def test_by_type_and_cross_protocol_views():
    bye = [s for s in BUILTIN_SCENARIOS if s.attack_type is AttackType.BYE_DOS]
    assert len(bye) == 2      # direct + cross-protocol variants
    cross = {s.scenario_id for s in BUILTIN_SCENARIOS if s.cross_protocol}
    assert cross == {"S3", "S6", "S7", "S8", "S11"}
    assert all(s.machine == "rtp" for s in BUILTIN_SCENARIOS
               if s.cross_protocol)


def test_get_by_id():
    by_id = {scenario.scenario_id: scenario for scenario in BUILTIN_SCENARIOS}
    assert len(by_id) == len(BUILTIN_SCENARIOS)     # ids are unique
    assert by_id["S1"] is INVITE_FLOOD
    assert INVITE_FLOOD.name == "INVITE request flooding"


def test_engine_alerts_carry_scenario_ids():
    """Alerts raised via the machines reference their scenario."""
    from repro.efsm import ManualClock
    from repro.vids import Vids

    from .test_ids import (bye_bytes, dgram, establish_call, make_vids,
                           ATTACKER, CALLER)

    vids, clock = make_vids()
    establish_call(vids, clock)
    vids.process(dgram(bye_bytes(), ATTACKER, CALLER), clock.now())
    alert = vids.alert_manager.by_type(AttackType.BYE_DOS)[0]
    assert alert.detail.get("scenario") == "S2"
    assert "BYE" in alert.detail.get("scenario_name", "")
