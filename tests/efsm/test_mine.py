"""EFSM mining: corpus extraction, guard synthesis, and model fidelity.

The acceptance bar from docs/MINING.md: a machine mined from a training
corpus must replay 100% of that corpus (zero deviations), and the mined
object must be a first-class :class:`~repro.efsm.machine.Efsm` — the
standard machine API (``validate``, ``verify_machine``, ``to_dot``) works
on it unchanged.
"""

import pytest

from repro.efsm import Efsm, Event, to_dot, verify_machine
from repro.efsm.diagnostics import Severity
from repro.efsm.guards import DISJOINT, decide
from repro.efsm.machine import EfsmInstance
from repro.efsm.mine import (
    CallSequence,
    Observation,
    StepRecord,
    _synthesize_guards,
    extract_corpus,
    mine_machine,
    replay_sequence,
)
from repro.obs import TraceBus, from_jsonl


def fire(bus, t, call_id, machine, event, src, dst, args=None, vars=None,
         channel=None, deviation=False, attack=False):
    bus.emit("fire", t, call_id=call_id, machine=machine, event=event,
             from_state=src, to_state=dst, transition="t",
             deviation=deviation, attack=attack, channel=channel,
             args=args or {}, vars=vars or {})


def emit_linear_call(bus, call_id, t0=0.0):
    """A toy three-step call: Init -> A -> B -> Done."""
    bus.emit("call-created", t0, call_id=call_id)
    fire(bus, t0 + 1, call_id, "toy", "go", "Init", "A")
    fire(bus, t0 + 2, call_id, "toy", "step", "A", "B")
    fire(bus, t0 + 3, call_id, "toy", "done", "B", "Done")


class TestExtractCorpus:
    def test_groups_per_call_per_machine(self):
        bus = TraceBus()
        emit_linear_call(bus, "c1")
        emit_linear_call(bus, "c2", t0=10.0)
        corpus = extract_corpus(bus)
        assert corpus.calls_seen == 2
        assert corpus.calls_trained == 2
        assert corpus.machines() == ["toy"]
        assert len(corpus.sequences["toy"]) == 2
        steps = corpus.sequences["toy"][0].steps
        assert [s.event for s in steps] == ["go", "step", "done"]
        assert steps[0].from_state == "Init" and steps[0].to_state == "A"

    def test_truncated_call_excluded_and_counted(self):
        bus = TraceBus()
        # No call-created: the ring evicted this call's head.
        fire(bus, 1.0, "cut", "toy", "step", "A", "B")
        emit_linear_call(bus, "whole", t0=10.0)
        corpus = extract_corpus(bus)
        assert corpus.calls_truncated == 1
        assert corpus.calls_trained == 1
        assert {s.call_id for s in corpus.sequences["toy"]} == {"whole"}

    def test_call_restored_counts_as_truncated(self):
        bus = TraceBus()
        bus.emit("call-restored", 5.0, call_id="warm")
        fire(bus, 6.0, "warm", "toy", "step", "A", "B")
        corpus = extract_corpus(bus)
        assert corpus.calls_truncated == 1
        assert corpus.calls_trained == 0

    def test_attack_call_excluded_unless_opted_in(self):
        bus = TraceBus()
        emit_linear_call(bus, "good")
        bus.emit("call-created", 10.0, call_id="bad")
        fire(bus, 11.0, "bad", "toy", "go", "Init", "A")
        fire(bus, 12.0, "bad", "toy", "strike", "A", "ATTACK", attack=True)
        corpus = extract_corpus(bus)
        assert corpus.calls_excluded_attack == 1
        assert {s.call_id for s in corpus.sequences["toy"]} == {"good"}
        opted = extract_corpus(bus, include_attacks=True)
        assert opted.calls_excluded_attack == 0
        assert {s.call_id for s in opted.sequences["toy"]} == {"good", "bad"}

    def test_deviation_steps_skipped_and_counted(self):
        bus = TraceBus()
        bus.emit("call-created", 0.0, call_id="c")
        fire(bus, 1.0, "c", "toy", "go", "Init", "A")
        fire(bus, 2.0, "c", "toy", "noise", "A", "A", deviation=True)
        fire(bus, 3.0, "c", "toy", "done", "A", "Done")
        corpus = extract_corpus(bus)
        assert corpus.deviation_steps == 1
        steps = corpus.sequences["toy"][0].steps
        assert [s.event for s in steps] == ["go", "done"]

    def test_valuation_accumulates_pre_step(self):
        bus = TraceBus()
        bus.emit("call-created", 0.0, call_id="c")
        fire(bus, 1.0, "c", "toy", "go", "Init", "A", vars={"n": 1})
        fire(bus, 2.0, "c", "toy", "step", "A", "B", vars={"n": 2, "m": 9})
        fire(bus, 3.0, "c", "toy", "done", "B", "Done")
        steps = extract_corpus(bus).sequences["toy"][0].steps
        assert steps[0].valuation == {}            # pre-step: nothing yet
        assert steps[1].valuation == {"n": 1}
        assert steps[2].valuation == {"n": 2, "m": 9}

    def test_export_drop_count_surfaced(self):
        bus = TraceBus(capacity=4)
        emit_linear_call(bus, "c1")
        emit_linear_call(bus, "c2", t0=10.0)
        export = from_jsonl(bus.to_jsonl())
        assert export.truncated
        corpus = extract_corpus(export)
        assert corpus.dropped_events == export.dropped > 0


class TestGuardSynthesis:
    @staticmethod
    def obs(args):
        return Observation(args=args, valuation={}, spec_from="S",
                           spec_to="T")

    @staticmethod
    def admits(guard, args):
        """The synthesized guard, compiled, on one argument vector."""
        return bool(guard.compiled()(EfsmInstance(Efsm("m", "s0")),
                                     Event("e", args)))

    def test_in_set_guards_on_disjoint_values(self):
        branches = [
            [self.obs({"method": "INVITE"}), self.obs({"method": "ACK"})],
            [self.obs({"method": "BYE"})],
        ]
        guards = _synthesize_guards(branches)
        assert guards is not None and len(guards) == 2
        assert [g.describe() for g in guards] == [
            "x.method in {'ACK', 'INVITE'}", "x.method in {'BYE'}"]
        assert decide(guards).status == DISJOINT
        assert self.admits(guards[0], {"method": "INVITE"})
        assert not self.admits(guards[0], {"method": "BYE"})
        assert not self.admits(guards[0], {})            # missing field
        assert not self.admits(guards[0], {"method": []})    # unhashable

    def test_interval_guards_on_disjoint_ranges(self):
        branches = [
            [self.obs({"seq": n}) for n in (1, 3)],
            [self.obs({"seq": n}) for n in (10, 11)],
        ]
        guards = _synthesize_guards(branches)
        assert guards is not None
        assert [g.describe() for g in guards] == [
            "1 <= x.seq <= 3", "10 <= x.seq <= 11"]
        assert decide(guards).status == DISJOINT
        assert self.admits(guards[0], {"seq": 2})    # unseen but in range
        assert not self.admits(guards[0], {"seq": 10})
        assert not self.admits(guards[0], {"seq": True})   # bools excluded
        # Missing field or wrong type: not enabled, never an exception.
        assert not self.admits(guards[0], {})
        assert not self.admits(guards[0], {"seq": "2"})
        assert not self.admits(guards[0], {"seq": None})

    def test_no_separating_field_returns_none(self):
        branches = [
            [self.obs({"status": 200})],
            [self.obs({"status": 200})],
        ]
        assert _synthesize_guards(branches) is None

    def test_no_common_field_returns_none(self):
        branches = [
            [self.obs({"a": 1})],
            [self.obs({"b": 2})],
        ]
        assert _synthesize_guards(branches) is None

    def test_mined_guard_is_the_transitions_predicate(self):
        ok = [toy_sequence(f"ok{i}", [("resp", "T", "Up", {"status": 200})])
              for i in range(3)]
        fail = [toy_sequence(f"f{i}", [("resp", "T", "Failed",
                                        {"status": 486})])
                for i in range(3)]
        mined = mine_machine(ok + fail, "toy")
        by_guard = {t.predicate.describe(): t
                    for t in mined.efsm.transitions}
        assert set(by_guard) == {"200 <= x.status <= 200",
                                 "486 <= x.status <= 486"}
        # One describe() behind the label, the summary and to_dot.
        for text, transition in by_guard.items():
            assert transition.label == f"resp [{text}]"
            assert f"[{text}]" in to_dot(mined.efsm)
        assert sorted(line.split(": ")[1]
                      for line in mined.summary()["guards"]) \
            == sorted(by_guard)


def toy_sequence(call_id, steps):
    sequence = CallSequence(call_id, "toy")
    for event, src, dst, args in steps:
        sequence.steps.append(StepRecord(
            event=event, channel=None, from_state=src, to_state=dst,
            args=args, valuation={}))
    return sequence


class TestMineToy:
    def test_linear_machine_replays(self):
        sequences = [toy_sequence(f"c{i}", [
            ("go", "Init", "A", {}),
            ("done", "A", "Done", {}),
        ]) for i in range(3)]
        mined = mine_machine(sequences, "toy")
        assert mined.efsm.name == "mined-toy"
        for sequence in sequences:
            results = replay_sequence(mined.efsm, sequence)
            assert all(r.transition is not None for r in results)

    def test_branch_split_by_guard(self):
        ok = [toy_sequence(f"ok{i}", [
            ("invite", "Init", "Trying", {}),
            ("resp", "Trying", "Up", {"status": 200}),
        ]) for i in range(3)]
        fail = [toy_sequence(f"f{i}", [
            ("invite", "Init", "Trying", {}),
            ("resp", "Trying", "Failed", {"status": 486}),
        ]) for i in range(3)]
        mined = mine_machine(ok + fail, "toy")
        assert mined.guards, "expected synthesized guards on the split"
        for guard in mined.guards.values():
            assert {term.name for term in guard.terms()
                    if term.kind == "x"} == {"status"}
        for sequence in ok + fail:
            results = replay_sequence(mined.efsm, sequence)
            assert all(r.transition is not None for r in results)

    def test_unseparable_branches_fold(self):
        # Same event, identical args, different targets: no guard can
        # separate them, so the targets merge rather than going
        # nondeterministic.
        sequences = [
            toy_sequence("a", [("x", "S", "P", {}), ("p", "P", "End", {})]),
            toy_sequence("b", [("x", "S", "Q", {}), ("q", "Q", "End", {})]),
        ]
        mined = mine_machine(sequences, "toy")
        mined.efsm.validate()
        for sequence in sequences:
            results = replay_sequence(mined.efsm, sequence)
            assert all(r.transition is not None for r in results)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            mine_machine([], "toy")


class TestScenarioMining:
    """Acceptance: mined machines replay 100% of their training corpus."""

    def test_both_protocol_machines_mined(self, benign_mining_run):
        assert set(benign_mining_run.mined) == {"sip", "rtp"}
        sip = benign_mining_run.mined["sip"]
        # The full lifecycle trained: teardown is a reachable final.
        assert "Closed" in sip.efsm.final_states

    def test_replays_every_training_trace(self, benign_mining_run):
        for name, mined in benign_mining_run.mined.items():
            for sequence in benign_mining_run.corpus.sequences[name]:
                for result in replay_sequence(mined.efsm, sequence):
                    assert result.transition is not None, (
                        f"{name}: mined model rejected training step "
                        f"{result.event.name} in {result.from_state}")

    def test_machine_api_works_unchanged(self, benign_mining_run, tmp_path):
        for mined in benign_mining_run.mined.values():
            mined.efsm.validate()
            diagnostics = verify_machine(mined.efsm)
            errors = [d for d in diagnostics
                      if d.severity >= Severity.ERROR]
            assert not errors, errors
            dot = to_dot(mined.efsm)
            assert "digraph" in dot
            (tmp_path / f"{mined.efsm.name}.dot").write_text(dot)

    def test_corpus_accounting(self, benign_mining_run):
        corpus = benign_mining_run.corpus
        assert corpus.calls_trained > 0
        assert corpus.dropped_events == 0
        summary = corpus.summary()
        assert summary["sequences"]["sip"] == len(corpus.sequences["sip"])
