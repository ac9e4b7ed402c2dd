"""specdiff: a trace's fire events against the specification.

Acceptance (docs/SPECCHECK.md "specdiff"): a benign corpus diffed against
the hand-written SIP machine yields no finding above INFO, while a spec
with an injected gap — a removed transition that the traffic fires, or a
recorded deviation — is flagged with a missing-transition ERROR.
"""

from collections import Counter

import pytest

from repro.efsm import Efsm, Severity, errors_only, verify_machine
from repro.efsm.guards import x
from repro.efsm.specdiff import firing_key, specdiff
from repro.obs.trace import TraceEvent
from repro.vids.config import DEFAULT_CONFIG
from repro.vids.sip_machine import build_sip_machine
from repro.vids.spec import call_spec


def fire(event, src, dst, channel=None, machine="toy-spec",
         deviation=False):
    return TraceEvent(seq=0, time=0.0, kind="fire", call_id="c0",
                      packet_id=None,
                      data={"machine": machine, "event": event,
                            "channel": channel, "from_state": src,
                            "to_state": dst, "deviation": deviation,
                            "attack": False})


def build_toy_spec(guard_status=None):
    """Init --invite--> Trying --resp--> Up (final).

    With ``guard_status`` the resp transition is guarded on
    ``x.status == guard_status``.
    """
    spec = Efsm("toy-spec", "Init")
    spec.add_state("Init")
    spec.add_state("Trying")
    spec.add_state("Up", final=True)
    spec.add_transition("Init", "invite", "Trying")
    predicate = None
    if guard_status is not None:
        predicate = x("status", None) == guard_status
    spec.add_transition("Trying", "resp", "Up", predicate=predicate)
    assert not errors_only(verify_machine(spec))
    return spec


def by_rule(diagnostics, rule):
    return [d for d in diagnostics if d.rule == rule]


def above_info(diagnostics):
    return [d for d in diagnostics if d.severity >= Severity.WARNING]


class TestRules:
    def test_clean_toy_diff_has_no_findings_above_info(self):
        events = [fire("invite", "Init", "Trying"),
                  fire("resp", "Trying", "Up")] * 2
        assert not above_info(specdiff(events, build_toy_spec()))

    def test_missing_transition_on_unknown_event(self):
        events = [fire("invite", "Init", "Trying"),
                  fire("surprise", "Trying", "Up")]
        findings = by_rule(specdiff(events, build_toy_spec()),
                           "missing-transition")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity == Severity.ERROR
        assert finding.state == "Trying" and finding.event == "surprise"

    def test_missing_transition_on_unknown_state(self):
        findings = by_rule(
            specdiff([fire("invite", "Ghost", "Trying")], build_toy_spec()),
            "missing-transition")
        assert findings and findings[0].state == "Ghost"

    def test_target_mismatch_reported(self):
        # The spec routes resp to Up; the trace recorded a landing in
        # Trying (a self-loop the spec does not model).
        events = [fire("invite", "Init", "Trying"),
                  fire("resp", "Trying", "Trying")]
        (finding,) = by_rule(specdiff(events, build_toy_spec()),
                             "missing-transition")
        assert finding.severity == Severity.ERROR
        assert finding.state == "Trying" and finding.event == "resp"

    def test_deviation_is_a_missing_transition(self):
        # A deviation leaves the state where it was; its key can even be a
        # spec transition's (a guarded self-loop) and it still counts as
        # a gap, not as that transition exercised.
        spec = build_toy_spec(guard_status=200)
        spec.add_transition("Trying", "resp", "Trying",
                            predicate=x("status", None) == 100)
        events = [fire("invite", "Init", "Trying"),
                  fire("resp", "Trying", "Trying", deviation=True),
                  fire("resp", "Trying", "Trying", deviation=True)]
        diagnostics = specdiff(events, spec)
        (finding,) = by_rule(diagnostics, "missing-transition")
        assert finding.severity == Severity.ERROR
        assert finding.data == {"samples": 2, "deviations": 2}
        assert "2 recorded firing(s) of 'resp' in state 'Trying'" \
            in finding.message
        assert {d.event for d in by_rule(diagnostics,
                                         "unexercised-transition")} \
            == {"resp"}

    def test_guarded_spec_is_diffed_structurally(self):
        # Fire events carry no arguments: the key names the transition,
        # so a guarded spec is never probed.
        events = [fire("invite", "Init", "Trying"),
                  fire("resp", "Trying", "Up")]
        diagnostics = specdiff(events, build_toy_spec(guard_status=200))
        assert not above_info(diagnostics)
        assert not by_rule(diagnostics, "unexercised-transition")

    def test_channel_filter(self):
        # A sync firing is the channel's transition only; the data
        # transition with the same source, event and target stays
        # unexercised.
        spec = Efsm("gate", "idle")
        spec.add_state("open")
        spec.declare_channel("peer->gate")
        spec.add_transition("idle", "badge", "open", label="within")
        spec.add_transition("idle", "badge", "open", channel="peer->gate",
                            label="synced")

        def unexercised(*channels):
            events = [fire("badge", "idle", "open", channel, machine="gate")
                      for channel in channels]
            return {d.transition for d in by_rule(
                specdiff(events, spec), "unexercised-transition")}

        assert unexercised("peer->gate") == {"within"}
        assert unexercised(None) == {"synced"}
        assert unexercised(None, "peer->gate") == set()

    def test_other_machines_fire_events_are_ignored(self):
        events = [fire("surprise", "Ghost", "Up", machine="rtp"),
                  TraceEvent(seq=1, time=0.0, kind="alert", call_id="c0",
                             packet_id=None, data={"machine": "toy-spec"})]
        diagnostics = specdiff(events, build_toy_spec())
        assert not above_info(diagnostics)
        assert {d.state for d in by_rule(diagnostics, "unvisited-state")} \
            == {"Init", "Trying", "Up"}

    def test_unexercised_and_unvisited_info(self):
        spec = build_toy_spec()
        spec.add_state("Side", final=True)
        spec.add_transition("Trying", "detour", "Side")
        events = [fire("invite", "Init", "Trying"),
                  fire("resp", "Trying", "Up")]
        diagnostics = specdiff(events, spec)
        unexercised = by_rule(diagnostics, "unexercised-transition")
        assert any(d.event == "detour" for d in unexercised)
        unvisited = by_rule(diagnostics, "unvisited-state")
        assert any(d.state == "Side" for d in unvisited)
        assert all(d.severity == Severity.INFO
                   for d in unexercised + unvisited)


@pytest.mark.parametrize("cross_protocol", [True, False],
                         ids=["cross", "no-cross"])
def test_firing_key_names_one_transition(cross_protocol):
    """``(source, event, channel, target)`` — all a fire event records —
    is unique per transition in every shipped machine, so a recorded
    firing names the transition that fired."""
    spec = call_spec(DEFAULT_CONFIG.with_overrides(
        cross_protocol=cross_protocol))
    for machine in spec.machines + (spec.source_flood,):
        keys = Counter(firing_key(t) for t in machine.transitions)
        assert [key for key, count in keys.items() if count > 1] == [], \
            machine.name


def remove_transitions(machine, event_name):
    """Inject a spec gap: strip every ``event_name`` transition."""
    removed = [t for t in machine.transitions
               if t.event_name == event_name]
    assert removed, f"spec has no {event_name} transitions"
    for transition in removed:
        machine.transitions.remove(transition)
    return removed


class TestAgainstSipSpec:
    """Scenario-corpus acceptance tests against the hand-written machine."""

    def test_zero_missing_transitions_on_benign_corpus(
            self, benign_mining_run):
        spec = build_sip_machine(DEFAULT_CONFIG)
        diagnostics = specdiff(benign_mining_run.obs.trace.events(), spec)
        assert not by_rule(diagnostics, "missing-transition"), diagnostics
        assert not above_info(diagnostics), diagnostics

    def test_injected_spec_gap_detected(self, benign_mining_run):
        gapped = build_sip_machine(DEFAULT_CONFIG)
        remove_transitions(gapped, "BYE")
        diagnostics = specdiff(benign_mining_run.obs.trace.events(), gapped)
        findings = by_rule(diagnostics, "missing-transition")
        assert findings, "removed BYE transitions must surface as a gap"
        assert all(d.severity == Severity.ERROR for d in findings)
        assert any(d.event == "BYE" for d in findings)

    def test_findings_render_with_speclint_reporting(self,
                                                     benign_mining_run):
        from repro.efsm import count_by_severity, format_report

        spec = build_sip_machine(DEFAULT_CONFIG)
        diagnostics = specdiff(benign_mining_run.obs.trace.events(), spec)
        report = format_report(diagnostics)
        assert "unexercised-transition" in report
        counts = count_by_severity(diagnostics)
        assert sum(counts.values()) == len(diagnostics)
        assert all(d.severity == Severity.INFO for d in diagnostics)
