"""specdiff: mined-vs-spec structural diffing.

Acceptance (docs/MINING.md): a benign corpus diffed against the
hand-written SIP machine yields zero missing-transition findings, while a
spec with an injected gap (a removed benign transition) is flagged with a
missing-transition ERROR.
"""

from repro.efsm import Efsm, Severity
from repro.efsm.guards import helper, truthy, v, write, x
from repro.efsm.mine import CallSequence, StepRecord, mine_machine
from repro.efsm.specdiff import specdiff
from repro.vids.config import DEFAULT_CONFIG
from repro.vids.sip_machine import build_sip_machine


def toy_sequence(call_id, steps, machine="toy"):
    sequence = CallSequence(call_id, machine)
    for event, src, dst, args in steps:
        sequence.steps.append(StepRecord(
            event=event, channel=None, from_state=src, to_state=dst,
            args=args, valuation={}))
    return sequence


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
    spec.validate()
    return spec


def mine_toy(step_lists):
    sequences = [toy_sequence(f"c{i}", steps)
                 for i, steps in enumerate(step_lists)]
    return mine_machine(sequences, "toy")


def by_rule(diagnostics, rule):
    return [d for d in diagnostics if d.rule == rule]


def within_limit(n, limit):
    return n <= limit           # TypeError when a field is missing


def fired(n):
    raise AssertionError("a probe ran a transition's action")


class TestRules:
    def test_clean_toy_diff_has_no_findings_above_info(self):
        mined = mine_toy([[
            ("invite", "Init", "Trying", {"status": 0}),
            ("resp", "Trying", "Up", {"status": 200}),
        ]] * 2)
        diagnostics = specdiff(mined, build_toy_spec())
        assert not [d for d in diagnostics
                    if d.severity >= Severity.WARNING], diagnostics

    def test_missing_transition_on_unknown_event(self):
        mined = mine_toy([[
            ("invite", "Init", "Trying", {}),
            ("surprise", "Trying", "Up", {}),
        ]])
        findings = by_rule(specdiff(mined, build_toy_spec()),
                           "missing-transition")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity == Severity.ERROR
        assert finding.state == "Trying" and finding.event == "surprise"

    def test_missing_transition_on_unknown_state(self):
        mined = mine_toy([[("invite", "Ghost", "Trying", {})]])
        findings = by_rule(specdiff(mined, build_toy_spec()),
                           "missing-transition")
        assert findings and findings[0].state == "Ghost"

    def test_guard_rejects_all_samples(self):
        mined = mine_toy([[
            ("invite", "Init", "Trying", {"status": 0}),
            ("resp", "Trying", "Up", {"status": 486}),
        ]] * 2)
        diagnostics = specdiff(mined, build_toy_spec(guard_status=200))
        findings = by_rule(diagnostics, "guard-disagreement")
        assert len(findings) == 1
        assert findings[0].severity == Severity.WARNING
        assert "reject all" in findings[0].message

    def test_guard_partial_coverage(self):
        mined = mine_toy([
            [("invite", "Init", "Trying", {"status": 0}),
             ("resp", "Trying", "Up", {"status": 200})],
            [("invite", "Init", "Trying", {"status": 0}),
             ("resp", "Trying", "Up", {"status": 486})],
        ])
        diagnostics = specdiff(mined, build_toy_spec(guard_status=200))
        findings = by_rule(diagnostics, "guard-disagreement")
        assert findings and "accept only" in findings[0].message

    def test_target_mismatch_reported(self):
        # The spec routes resp to Up; the traces recorded a landing in
        # Trying (a self-loop the spec does not model).
        mined = mine_toy([[
            ("invite", "Init", "Trying", {"status": 0}),
            ("resp", "Trying", "Trying", {"status": 200}),
        ]])
        diagnostics = specdiff(mined, build_toy_spec())
        findings = by_rule(diagnostics, "guard-disagreement")
        assert findings and "different target" in findings[0].message

    def test_structural_fallback_without_recorded_args(self):
        # trace_variables off: args/valuations empty, so guard probing is
        # skipped and name-level matches count as exercised.
        mined = mine_toy([[
            ("invite", "Init", "Trying", {}),
            ("resp", "Trying", "Up", {}),
        ]])
        diagnostics = specdiff(mined, build_toy_spec(guard_status=200))
        assert not [d for d in diagnostics
                    if d.severity >= Severity.WARNING], diagnostics

    def test_unexercised_and_unvisited_info(self):
        spec = build_toy_spec()
        spec.add_state("Side", final=True)
        spec.add_transition("Trying", "detour", "Side")
        mined = mine_toy([[
            ("invite", "Init", "Trying", {}),
            ("resp", "Trying", "Up", {}),
        ]])
        diagnostics = specdiff(mined, spec)
        unexercised = by_rule(diagnostics, "unexercised-transition")
        assert any(d.event == "detour" for d in unexercised)
        unvisited = by_rule(diagnostics, "unvisited-state")
        assert any(d.state == "Side" for d in unvisited)
        assert all(d.severity == Severity.INFO
                   for d in unexercised + unvisited)


class TestProbe:
    """specdiff runs each candidate's compiled guard on every recorded
    observation — its args, valuation and time — and fires nothing."""

    @staticmethod
    def gate():
        spec = Efsm("gate", "idle")
        spec.add_state("open")
        spec.declare(limit=3)
        spec.declare_global(g_mode="strict")
        spec.declare_channel("peer->gate")
        spec.add_transition(
            "idle", "badge", "open",
            predicate=truthy(helper(within_limit, x("n"), v("limit"))),
            action=write("limit", helper(fired, x("n"))), label="within")
        spec.add_transition("idle", "badge", "idle",
                            predicate=v("g_mode", "") == "lax", label="lax")
        spec.add_transition("idle", "badge", "open", channel="peer->gate",
                            label="synced")
        return spec

    @staticmethod
    def diff(spec, *steps):
        sequence = CallSequence("c0", "gate")
        sequence.steps.extend(
            StepRecord(event="badge", channel=channel, from_state="idle",
                       to_state=target, args=args, valuation=valuation)
            for channel, target, args, valuation in steps)
        return specdiff(mine_machine([sequence], "gate"), spec)

    @staticmethod
    def unexercised(diagnostics):
        return {d.transition for d in by_rule(diagnostics,
                                              "unexercised-transition")}

    def test_channel_filter(self):
        spec = self.gate()
        # A sync observation is probed against the channel's transition
        # only; the data guards never see it.
        diagnostics = self.diff(spec, ("peer->gate", "open", {"n": 99}, {}))
        assert not [d for d in diagnostics if d.severity >= Severity.WARNING]
        assert self.unexercised(diagnostics) == {"within", "lax"}
        diagnostics = self.diff(spec, (None, "open", {"n": 1}, {"limit": 3}))
        assert self.unexercised(diagnostics) == {"lax", "synced"}

    def test_valuation_feeds_locals_and_globals(self):
        spec = self.gate()
        # ``limit`` is a declared local, ``g_mode`` a shared global: the
        # probe reads both off the one recorded valuation, and a variable
        # the record lacks at its declared default.
        diagnostics = self.diff(
            spec, (None, "open", {"n": 5}, {"limit": 9}),
            (None, "open", {"n": 3}, {}),
            (None, "idle", {"n": 99}, {"limit": 9, "g_mode": "lax"}))
        assert not [d for d in diagnostics if d.severity >= Severity.WARNING]
        assert self.unexercised(diagnostics) == {"synced"}

    def test_raising_guard_counts_as_not_enabled(self):
        spec = self.gate()
        # No "n" in the record: the first guard's helper raises
        # TypeError.
        diagnostics = self.diff(spec, (None, "idle", {}, {"g_mode": "lax"}))
        assert not by_rule(diagnostics, "guard-disagreement")
        assert self.unexercised(diagnostics) == {"within", "synced"}
        rejected = self.diff(spec, (None, "idle", {}, {"g_mode": "strict"}))
        (finding,) = by_rule(rejected, "guard-disagreement")
        assert "reject all 1" in finding.message

    def test_nothing_fires(self):
        spec = self.gate()             # its action raises if it runs
        self.diff(spec, (None, "open", {"n": 1}, {"limit": 9}),
                  (None, "idle", {"n": 5}, {"g_mode": "lax"}))
        assert spec.variables["limit"] == 3
        assert spec.global_variables["g_mode"] == "strict"

    def test_every_observation_of_a_group_is_probed(self):
        spec = build_toy_spec(guard_status=200)
        mined = mine_toy([[("invite", "Init", "Trying", {"status": 0}),
                           ("resp", "Trying", "Up", {"status": status})]
                          for status in [200] * 7 + [486]])
        (finding,) = by_rule(specdiff(mined, spec), "guard-disagreement")
        assert "accept only 7 of 8" in finding.message


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
        diagnostics = specdiff(benign_mining_run.mined["sip"], spec)
        assert not by_rule(diagnostics, "missing-transition"), diagnostics
        assert not [d for d in diagnostics
                    if d.severity >= Severity.WARNING], diagnostics

    def test_injected_spec_gap_detected(self, benign_mining_run):
        gapped = build_sip_machine(DEFAULT_CONFIG)
        remove_transitions(gapped, "BYE")
        diagnostics = specdiff(benign_mining_run.mined["sip"], gapped)
        findings = by_rule(diagnostics, "missing-transition")
        assert findings, "removed BYE transitions must surface as a gap"
        assert all(d.severity == Severity.ERROR for d in findings)
        assert any(d.event == "BYE" for d in findings)

    def test_findings_render_with_speclint_reporting(self,
                                                     benign_mining_run):
        from repro.efsm import count_by_severity, format_report

        spec = build_sip_machine(DEFAULT_CONFIG)
        diagnostics = specdiff(benign_mining_run.mined["sip"], spec)
        report = format_report(diagnostics)
        assert "unexercised-transition" in report
        counts = count_by_severity(diagnostics)
        assert sum(counts.values()) == len(diagnostics)
        assert all(d.severity == Severity.INFO for d in diagnostics)
