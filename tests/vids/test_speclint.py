"""Tests for the vids spec-lint integration (repro.vids.spec).

Proves (a) the shipped SIP/RTP specifications verify clean and every
multi-candidate group of theirs is *decided*, and (b) the registration
gate fails fast on a broken specification, before anything is frozen.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.efsm import Severity, SpecVerificationError
from repro.efsm.guards import DISJOINT, decide, x
from repro.efsm.verify import verify_system
from repro.vids import (
    DEFAULT_CONFIG,
    CallSpec,
    Vids,
    build_rtp_machine,
    build_sip_machine,
    call_spec,
)
from repro.vids.factbase import CallStateFactBase

from ..efsm.test_verify import sync_cycle


def worst(diagnostics, min_severity):
    return [d for d in diagnostics if d.severity >= min_severity]


class TestShippedSpecsClean:
    def test_default_config_has_no_error_or_warning_findings(self):
        diagnostics = CallSpec.build(DEFAULT_CONFIG).diagnostics()
        assert worst(diagnostics, Severity.WARNING) == []

    def test_ablation_config_has_no_error_findings(self):
        config = DEFAULT_CONFIG.with_overrides(cross_protocol=False)
        diagnostics = CallSpec.build(config).diagnostics()
        assert worst(diagnostics, Severity.ERROR) == []

    def test_default_config_reports_exactly_the_sixteen_coverage_gaps(self):
        """Read off the data, the hygiene rules have nothing to say: no
        opaque code, no unused or undeclared variable, no timer gap."""
        diagnostics = CallSpec.build(DEFAULT_CONFIG).diagnostics()
        assert [(d.rule, d.severity) for d in diagnostics] == [
            ("event-coverage-gap", Severity.INFO)] * 16

    def test_report_is_not_empty(self):
        # INFO findings (alphabet coverage) are expected and informative.
        assert CallSpec.build(DEFAULT_CONFIG).diagnostics()

    def test_product_pass_covers_the_call_system(self):
        # The interacting machines have no wedgeable configuration: the
        # CANCEL/200 and early-media races are absorbed by dedicated
        # transitions (labels below), which this test pins down.
        rtp = build_rtp_machine(DEFAULT_CONFIG)
        labels = {t.label for t in rtp.transitions}
        assert "cancelled-with-media" in labels
        assert "answer-after-bye" in labels
        assert "answer-after-close" in labels


class TestDeterminismIsDecided:
    """Definition 1 on the shipped machines: exact, nothing sampled."""

    def test_every_multi_candidate_group_is_decided_disjoint(self):
        decisions = [(machine.name, group[0].source, group[0].event_name,
                      decision.status)
                     for machine in CallSpec.build().machines
                     for group, decision in machine.decide_determinism()]
        assert len(decisions) == 15     # SIP 9, RTP 3, flood 1, Fig-6 2
        assert {status for *_, status in decisions} == {DISJOINT}

    def test_participant_gated_pairs_are_syntactic_complements(self):
        # The sampled probe never populated ``participants``, so only the
        # attack side of these five pairs was ever evaluated.
        sip = build_sip_machine(DEFAULT_CONFIG)
        pairs = {(group[0].source, group[0].event_name): group
                 for group, _ in sip.decide_determinism()}
        gated = [("INVITE_Rcvd", "CANCEL"), ("Proceeding", "CANCEL"),
                 ("Call_Established", "INVITE"), ("Answered", "BYE"),
                 ("Call_Established", "BYE")]
        for key in gated:
            benign, attack = pairs[key]
            assert attack.attack and not benign.attack
            assert benign.predicate.describe() == "x.src_ip in v.participants"
            assert attack.predicate.key == (~benign.predicate).key
            assert decide([benign.predicate, attack.predicate]).status \
                == DISJOINT

    def test_strict_cli_fails_on_the_planted_overlap(self, monkeypatch,
                                                     capsys):
        from repro.vids import sip_machine

        assert main(["speclint", "--strict",
                     "--min-severity", "warning"]) == 0
        assert "no findings" in capsys.readouterr().out
        status = x("status", 0)
        monkeypatch.setattr(
            sip_machine, "IS_2XX_INVITE",
            (status >= 200) & (status <= 300) & sip_machine._INVITE_CSEQ)
        assert main(["speclint", "--strict"]) == 1
        assert "x.status=300, x.cseq_method='INVITE'" in \
            capsys.readouterr().out


class TestRegressionDetection:
    """Removing the race-fix transitions must resurface the deadlocks."""

    def test_dropping_cancel_handling_resurfaces_deadlock(self):
        sip = build_sip_machine(DEFAULT_CONFIG)
        rtp = build_rtp_machine(DEFAULT_CONFIG)
        rtp.transitions[:] = [
            t for t in rtp.transitions
            if t.label not in ("cancelled-with-media", "answer-after-bye",
                               "answer-after-close")]
        diagnostics = verify_system([sip, rtp])
        deadlocks = [d for d in diagnostics if d.rule == "sync-deadlock"]
        wedged = {(d.state, d.event) for d in deadlocks}
        assert ("RTP_Rcvd", "delta_cancelled") in wedged
        assert ("RTP_Close", "delta_session_answer") in wedged


def sever_cancel_paths(machine):
    """Sever every CANCEL path: the cancel-related δ send keeps flowing
    but the states behind it become unreachable."""
    machine.transitions[:] = [t for t in machine.transitions
                              if t.target not in ("Cancelling",)]
    return machine


@pytest.fixture
def fresh_specs():
    """An empty spec memo, emptied again afterwards: a broken spec must
    neither come from nor stay in it."""
    call_spec.cache_clear()
    yield
    call_spec.cache_clear()


class TestRegistrationGate:
    def test_gate_refuses_a_broken_spec_before_freezing_it(self):
        spec = CallSpec.build(DEFAULT_CONFIG)
        sever_cancel_paths(spec.sip)
        with pytest.raises(SpecVerificationError) as excinfo:
            spec.verified()
        assert excinfo.value.diagnostics
        assert all(d.severity is Severity.ERROR
                   for d in excinfo.value.diagnostics)
        assert not any(machine.frozen for machine in spec.machines)

    def test_factbase_verifies_on_construction(self, monkeypatch,
                                               fresh_specs):
        from repro.vids import sip_machine

        build = sip_machine.build_sip_machine
        monkeypatch.setattr(sip_machine, "build_sip_machine",
                            lambda config: sever_cancel_paths(build(config)))
        with pytest.raises(SpecVerificationError):
            CallStateFactBase(DEFAULT_CONFIG, lambda: 0.0,
                              lambda *args, **kwargs: None)
        # A refused spec is not memoised: the next call builds again.
        assert call_spec.cache_info().currsize == 0

    def test_gate_refuses_a_sync_cycle(self):
        # A cascade that never ends would hang inject on the first packet.
        left, right = sync_cycle()
        spec = dataclasses.replace(CallSpec.build(DEFAULT_CONFIG),
                                   sip=left, rtp=right)
        with pytest.raises(SpecVerificationError) as excinfo:
            spec.verified()
        assert [d.rule for d in excinfo.value.diagnostics] == [
            "sync-unbounded"]

    def test_vids_constructs_with_gate_on(self):
        vids = Vids(config=DEFAULT_CONFIG, clock_now=lambda: 0.0,
                    timer_scheduler=lambda *args, **kwargs: None)
        spec = vids.factbase.spec
        assert spec is call_spec(DEFAULT_CONFIG)
        assert all(machine.frozen for machine in
                   (*spec.machines, spec.source_flood))
