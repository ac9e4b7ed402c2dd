"""The machines must stay aligned with docs/STATE_MACHINES.md's claims."""

from repro.efsm import attack_paths, event_coverage
from repro.vids import SCENARIOS, build_rtp_machine, build_sip_machine, call_spec


def test_documented_state_counts():
    sip = build_sip_machine()
    rtp = build_rtp_machine()
    assert len(sip.states) == 13
    assert len(rtp.states) == 10
    assert sip.alphabet == {"INVITE", "ACK", "BYE", "CANCEL", "RESPONSE"}


def test_every_embedded_attack_state_is_typed_and_catalogued():
    """The scenario table is the one table from (machine, attack state)
    to alert type: every attack state of the two per-call machines and of
    the Figure-6 machine has exactly one row there, and no row names a
    state they lack."""
    spec = call_spec()
    machines = (spec.sip, spec.rtp, spec.media_spam)
    assert {machine for machine, _ in SCENARIOS} == {m.name for m in machines}
    for machine in machines:
        catalogued = [state for name, state in SCENARIOS
                      if name == machine.name]
        assert sorted(catalogued) == sorted(machine.attack_states)


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
