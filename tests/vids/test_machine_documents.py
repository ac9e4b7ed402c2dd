"""The machines must stay aligned with docs/STATE_MACHINES.md's claims."""

from repro.efsm import attack_paths, event_coverage
from repro.vids import (
    AttackScenarioDatabase,
    build_rtp_machine,
    build_sip_machine,
)


def test_documented_state_counts():
    sip = build_sip_machine()
    rtp = build_rtp_machine()
    assert len(sip.states) == 13
    assert len(rtp.states) == 9
    assert sip.alphabet == {"INVITE", "ACK", "BYE", "CANCEL", "RESPONSE"}


def test_every_embedded_attack_state_is_typed_and_catalogued():
    """The scenario database is the one table from (machine, attack state)
    to alert type: every attack state of the two per-call machines has
    exactly one scenario there, and no scenario names a state they lack.
    (ATTACK_Media_After_Close is catalogued as BYE DoS; the engine alone
    re-attributes it to toll fraud when the BYE sender keeps streaming.)"""
    database = AttackScenarioDatabase()
    for machine in (build_sip_machine(), build_rtp_machine()):
        catalogued = [scenario.attack_state for scenario in database
                      if scenario.machine == machine.name]
        assert sorted(catalogued) == sorted(machine.attack_states)
        for state in machine.attack_states:
            assert database.for_state(machine.name, state) is not None, state


def test_attack_states_are_absorbing():
    """Once matched, an attack state must never deviate on further traffic."""
    for machine in (build_sip_machine(), build_rtp_machine()):
        coverage = event_coverage(machine)
        for state in machine.attack_states:
            # Every data event in the alphabet self-loops there.
            data_events = {event for event in machine.alphabet
                           if not event.startswith("delta")
                           and event != "T"}
            assert data_events <= coverage[state], (machine.name, state)
            for transition in machine.transitions:
                if transition.source == state:
                    assert transition.target == state, transition.describe()


def test_happy_path_states_are_not_attack_annotated():
    sip = build_sip_machine()
    happy = {"INIT", "INVITE_Rcvd", "Proceeding", "Answered",
             "Call_Established", "Teardown_Begins", "Closed"}
    assert happy <= set(sip.states)
    assert not (happy & sip.attack_states)


def test_attack_paths_route_through_expected_checkpoints():
    sip_paths = attack_paths(build_sip_machine())
    # Hijack requires an established call first.
    hijack = sip_paths["ATTACK_Hijack"]
    states = [t.source for t in hijack]
    assert "Call_Established" in states
    # BYE DoS requires at least an answered call.
    bye = sip_paths["ATTACK_Bye_DoS"]
    assert any(t.source in ("Answered", "Call_Established") for t in bye)
