"""Unit tests for the static spec verifier (repro.efsm.verify).

Every lint rule gets a deliberately broken fixture machine proving the rule
fires (rule id, severity, and location), plus clean fixtures proving it
stays quiet.
"""


from repro.efsm import (
    Efsm,
    EfsmSystem,
    Event,
    Output,
    Severity,
    TIMER_CHANNEL,
    verify_machine,
    verify_system,
)
from repro.efsm.guards import cancel, helper, start, v, when, write, x


def rules_of(diagnostics, min_severity=Severity.INFO):
    return {d.rule for d in diagnostics if d.severity >= min_severity}


def find(diagnostics, rule):
    matching = [d for d in diagnostics if d.rule == rule]
    assert matching, f"expected a {rule!r} finding, got " \
                     f"{[d.rule for d in diagnostics]}"
    return matching


# ---------------------------------------------------------------------------
# reachability / sink rules
# ---------------------------------------------------------------------------

def test_unreachable_state_and_attack_state():
    machine = Efsm("m", "s0")
    machine.add_state("s1")
    machine.add_state("orphan")
    machine.add_state("lost_attack", attack=True)
    machine.add_transition("s0", "go", "s1")
    machine.add_transition("s1", "go", "s1")
    diagnostics = verify_machine(machine)
    (orphan,) = find(diagnostics, "unreachable-state")
    assert orphan.state == "orphan" and orphan.severity is Severity.ERROR
    (lost,) = find(diagnostics, "unreachable-attack-state")
    assert lost.state == "lost_attack" and lost.severity is Severity.ERROR
    assert "never" in lost.message  # the pattern can never match


def test_trap_state_flagged():
    machine = Efsm("m", "s0")
    machine.add_state("stuck")
    machine.add_transition("s0", "go", "stuck")
    (trap,) = find(verify_machine(machine), "trap-state")
    assert trap.state == "stuck" and trap.severity is Severity.ERROR


def test_final_and_attack_sinks_are_not_traps():
    machine = Efsm("m", "s0")
    machine.add_state("done", final=True)
    machine.add_state("bad", attack=True)
    machine.add_transition("s0", "ok", "done")
    machine.add_transition("s0", "evil", "bad")
    diagnostics = verify_machine(machine)
    assert "trap-state" not in rules_of(diagnostics)


def test_dead_state_cannot_reach_final():
    machine = Efsm("m", "s0")
    machine.add_state("limbo")
    machine.add_state("done", final=True)
    machine.add_transition("s0", "ok", "done")
    machine.add_transition("s0", "drift", "limbo")
    machine.add_transition("limbo", "spin", "limbo")
    (dead,) = find(verify_machine(machine), "dead-state")
    assert dead.state == "limbo" and dead.severity is Severity.WARNING


def test_dead_state_skipped_without_final_states():
    machine = Efsm("m", "s0")
    machine.add_state("s1")
    machine.add_transition("s0", "go", "s1")
    machine.add_transition("s1", "back", "s0")
    assert "dead-state" not in rules_of(verify_machine(machine))


# ---------------------------------------------------------------------------
# nondeterminism
# ---------------------------------------------------------------------------

def test_two_unguarded_transitions_is_definite_overlap():
    machine = Efsm("m", "s0")
    machine.add_state("a")
    machine.add_state("b")
    machine.add_transition("s0", "e", "a")
    machine.add_transition("s0", "e", "b")
    (overlap,) = find(verify_machine(machine), "nondeterministic-overlap")
    assert overlap.severity is Severity.ERROR
    assert len(overlap.data["transitions"]) == 2


def two_way(first, second):
    machine = Efsm("m", "s0")
    machine.add_state("a")
    machine.add_state("b")
    machine.add_transition("s0", "e", "a", predicate=first, label="to-a")
    machine.add_transition("s0", "e", "b", predicate=second, label="to-b")
    return machine


def test_probed_overlap_witnessed_by_sample():
    # Overlap only at n == 5: no hand-kept sample list would carry it.
    n = x("n", 0)
    machine = two_way((n >= 0) & (n <= 5), n >= 5)
    (overlap,) = find(verify_machine(machine), "nondeterministic-overlap")
    assert overlap.severity is Severity.ERROR
    assert overlap.data["witness"] == {"x.n": 5}
    assert overlap.data["transitions"] == ["to-a", "to-b"]
    assert "x.n=5" in overlap.message and "x.n >= 5" in overlap.message


def test_unprovable_unguarded_overlap_is_warning():
    # An ordering against a string is not decided, so the group is
    # undecided, not refuted.
    machine = two_way(None, x("s", "") > "m")
    (overlap,) = find(verify_machine(machine), "nondeterministic-overlap")
    assert overlap.severity is Severity.WARNING
    assert "cannot be proven" in overlap.message


def test_unguarded_beside_a_satisfiable_guard_is_an_error():
    # An unguarded transition is always enabled: any valuation that
    # satisfies the guarded one enables both.
    machine = two_way(None, x("n", 0) > 5)
    (overlap,) = find(verify_machine(machine), "nondeterministic-overlap")
    assert overlap.severity is Severity.ERROR
    assert overlap.data["witness"] == {"x.n": 6}


def test_disjoint_guards_stay_clean():
    n = x("n", 0)
    diagnostics = verify_machine(two_way(n > 5, n <= 5))
    assert "nondeterministic-overlap" not in rules_of(diagnostics)


def test_planted_status_overlap_is_an_error_with_its_witness(monkeypatch):
    """``200 <= status <= 300`` beside ``status >= 300``: a 300 to an
    INVITE fires ``200-invite`` under first-match dispatch.  The sampled
    probe (statuses 180/200/487/500) never saw it."""
    from repro.vids import sip_machine

    status = x("status", 0)
    monkeypatch.setattr(
        sip_machine, "IS_2XX_INVITE",
        (status >= 200) & (status <= 300) & sip_machine._INVITE_CSEQ)
    overlaps = find(verify_machine(sip_machine.build_sip_machine()),
                    "nondeterministic-overlap")
    assert {d.state for d in overlaps} == {"INVITE_Rcvd", "Proceeding"}
    for overlap in overlaps:
        assert overlap.severity is Severity.ERROR
        assert overlap.data["witness"] == {"x.status": 300,
                                           "x.cseq_method": "INVITE"}
        assert overlap.data["transitions"] == ["200-invite", "invite-failed"]


def test_same_event_on_different_channels_is_not_overlap():
    machine = Efsm("m", "s0")
    machine.add_state("a")
    machine.add_state("b")
    machine.declare_channel("x->m")
    machine.add_transition("s0", "e", "a")
    machine.add_transition("s0", "e", "b", channel="x->m")
    diagnostics = verify_machine(machine)
    assert "nondeterministic-overlap" not in rules_of(diagnostics)


# ---------------------------------------------------------------------------
# alphabet coverage
# ---------------------------------------------------------------------------

def test_event_coverage_gap_reported_per_state():
    machine = Efsm("m", "s0")
    machine.add_state("s1")
    machine.add_transition("s0", "a", "s1")
    machine.add_transition("s0", "b", "s0")
    machine.add_transition("s1", "a", "s1")   # s1 misses "b"
    gaps = find(verify_machine(machine), "event-coverage-gap")
    by_state = {g.state: g for g in gaps}
    assert by_state["s1"].data["missing"] == ["b"]
    assert all(g.severity is Severity.INFO for g in gaps)


# ---------------------------------------------------------------------------
# variable rules (read off the terms and statements)
# ---------------------------------------------------------------------------

def test_undeclared_variable_write():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0",
                           action=when(x("k", 0) > 1, write("typo_name", 1)))
    (finding,) = find(verify_machine(machine), "undeclared-variable")
    assert finding.severity is Severity.ERROR
    assert finding.data["variable"] == "typo_name"


def test_read_before_write_subscript_is_error():
    """A term without a default always reads MISSING when nothing declares
    or writes the variable."""
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0", predicate=v("ghost") > 0)
    (finding,) = find(verify_machine(machine), "read-before-write")
    assert finding.severity is Severity.ERROR
    assert finding.data["variable"] == "ghost"


def test_read_before_write_get_is_warning():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0", predicate=v("maybe", 0) > 0)
    (finding,) = find(verify_machine(machine), "read-before-write")
    assert finding.severity is Severity.WARNING


def bump(counter):
    return counter + 1


def test_helper_function_expansion_avoids_false_positives():
    # The read happens under a helper's arguments and the write inside a
    # block: both are data, so neither hides the variable.
    machine = Efsm("m", "s0")
    machine.declare(counter=0)
    machine.add_transition("s0", "e", "s0", action=when(
        x("k", 0) > 1, write("counter", helper(bump, v("counter", 0)))))
    diagnostics = verify_machine(machine)
    assert "undeclared-variable" not in rules_of(diagnostics)
    assert "unused-variable" not in rules_of(diagnostics)


def test_unused_variable_is_info():
    machine = Efsm("m", "s0")
    machine.declare(vestigial=0)
    machine.add_transition("s0", "e", "s0")
    (finding,) = find(verify_machine(machine), "unused-variable")
    assert finding.severity is Severity.INFO
    assert finding.data["variable"] == "vestigial"


# ---------------------------------------------------------------------------
# timer rules
# ---------------------------------------------------------------------------

def test_timer_started_but_never_handled():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0", action=start("T9", 1.0))
    (finding,) = find(verify_machine(machine), "timer-unhandled")
    assert finding.severity is Severity.ERROR and finding.event == "T9"


def test_timer_started_and_cancelled_never_fires():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0", action=start("T9", 1.0))
    machine.add_transition("s0", "f", "s0", action=cancel("T9"))
    (finding,) = find(verify_machine(machine), "timer-never-fires")
    assert finding.severity is Severity.WARNING


def test_timer_consumed_but_never_started():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "T9", "s0", channel=TIMER_CHANNEL)
    (finding,) = find(verify_machine(machine), "timer-never-started")
    assert finding.severity is Severity.WARNING


def test_timer_started_and_consumed_is_clean():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0", action=start("T9", 1.0))
    machine.add_transition("s0", "T9", "s0", channel=TIMER_CHANNEL)
    diagnostics = verify_machine(machine)
    assert not {"timer-unhandled", "timer-never-fires",
                "timer-never-started"} & rules_of(diagnostics)


def test_timer_name_resolved_through_module_constant():
    # The vids invite-flood machine names its timer by a module-level
    # constant; a start statement holds the name itself.
    from repro.vids.patterns.invite_flood import build_invite_flood_machine
    machine = build_invite_flood_machine(5, 1.0)
    diagnostics = verify_machine(machine)
    assert "timer-unhandled" not in rules_of(diagnostics)
    assert "timer-never-started" not in rules_of(diagnostics)


# ---------------------------------------------------------------------------
# channel rules (per machine)
# ---------------------------------------------------------------------------

def test_undeclared_input_channel():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "delta", "s0", channel="x->m")
    (finding,) = find(verify_machine(machine), "undeclared-channel")
    assert finding.severity is Severity.ERROR and finding.channel == "x->m"


def test_undeclared_output_channel():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0",
                           outputs=[Output("m->x", "delta")])
    (finding,) = find(verify_machine(machine), "undeclared-channel")
    assert finding.channel == "m->x"


# ---------------------------------------------------------------------------
# cross-machine rules
# ---------------------------------------------------------------------------

def _sender_machine(emit_event="ping", declare=True):
    machine = Efsm("a", "a0")
    if declare:
        machine.declare_channel("a->b")
    machine.add_transition("a0", "go", "a0",
                           outputs=[Output("a->b", emit_event)])
    return machine


def test_unmatched_send_is_error():
    sender = _sender_machine()
    receiver = Efsm("b", "b0")
    receiver.add_transition("b0", "other", "b0")
    findings = find(verify_system([sender, receiver]), "unmatched-send")
    assert findings[0].severity is Severity.ERROR
    assert findings[0].event == "ping" and findings[0].channel == "a->b"


def test_unmatched_receive_is_warning():
    sender = Efsm("a", "a0")
    sender.add_transition("a0", "go", "a0")
    receiver = Efsm("b", "b0")
    receiver.declare_channel("a->b")
    receiver.add_transition("b0", "ping", "b0", channel="a->b")
    (finding,) = find(verify_system([sender, receiver]), "unmatched-receive")
    assert finding.severity is Severity.WARNING and finding.machine == "b"


def test_receive_from_outside_the_system_is_not_flagged():
    receiver = Efsm("b", "b0")
    receiver.declare_channel("ext->b")
    receiver.add_transition("b0", "ping", "b0", channel="ext->b")
    diagnostics = verify_system([receiver])
    assert "unmatched-receive" not in rules_of(diagnostics)


def test_unknown_channel_endpoint():
    machine = Efsm("a", "a0")
    machine.declare_channel("a->ghost")
    machine.add_transition("a0", "go", "a0",
                           outputs=[Output("a->ghost", "ping")])
    (finding,) = find(verify_system([machine]), "unknown-channel-endpoint")
    assert finding.severity is Severity.ERROR


def test_sync_deadlock_found_by_product_pass():
    # b consumes ping only after its own data move; a emits ping
    # immediately, so the configuration (a0, b0) wedges the FIFO.
    sender = _sender_machine()
    receiver = Efsm("b", "b0")
    receiver.add_state("b1")
    receiver.declare_channel("a->b")
    receiver.add_transition("b0", "warmup", "b1")
    receiver.add_transition("b1", "ping", "b1", channel="a->b")
    (finding,) = find(verify_system([sender, receiver]), "sync-deadlock")
    assert finding.severity is Severity.ERROR
    assert finding.machine == "b" and finding.state == "b0"
    assert finding.event == "ping"


def test_sync_deadlock_absent_when_receive_total():
    sender = _sender_machine()
    receiver = Efsm("b", "b0")
    receiver.declare_channel("a->b")
    receiver.add_transition("b0", "ping", "b0", channel="a->b")
    diagnostics = verify_system([sender, receiver])
    assert rules_of(diagnostics, Severity.WARNING) == set()


def test_sync_deadlock_follows_the_runtime_send_order():
    # a sends x to b, then y to c; b answers x with z to c.  The macro-step
    # consumes x, y, z in that order, so c takes y before z and nothing
    # deviates: only z before y would find c in c0 without a consumer.
    a = Efsm("a", "a0")
    a.add_state("a1", final=True)
    a.declare_channel("a->b", "a->c")
    a.add_transition("a0", "go", "a1", outputs=[Output("a->b", "x"),
                                                Output("a->c", "y")])
    b = Efsm("b", "b0")
    b.declare_channel("a->b", "b->c")
    b.add_transition("b0", "x", "b0", channel="a->b",
                     outputs=[Output("b->c", "z")])
    c = Efsm("c", "c0")
    c.add_state("c1")
    c.add_state("c2", final=True)
    c.declare_channel("a->c", "b->c")
    c.add_transition("c0", "y", "c1", channel="a->c")
    c.add_transition("c1", "z", "c2", channel="b->c")
    assert "sync-deadlock" not in rules_of(verify_system([a, b, c]))
    system = EfsmSystem()
    for machine in (a, b, c):
        system.add_machine(machine)
    fired = system.inject("a", Event("go"))
    assert [result.deviation for result in fired] == [False] * 4
    assert system.states() == {"a": "a1", "b": "b0", "c": "c2"}


def sync_cycle(sends=1):
    """``a`` answers every pong with ``sends`` pings, ``b`` every ping with
    a pong: a kick starts a cascade that never ends."""
    left = Efsm("a", "a0")
    left.declare_channel("a->b", "b->a")
    left.add_transition("a0", "kick", "a0",
                        outputs=[Output("a->b", "ping")])
    left.add_transition("a0", "pong", "a0", channel="b->a",
                        outputs=[Output("a->b", "ping")] * sends)
    right = Efsm("b", "b0")
    right.declare_channel("a->b", "b->a")
    right.add_transition("b0", "ping", "b0", channel="a->b",
                         outputs=[Output("b->a", "pong")])
    return left, right


def test_sync_pingpong_cycle_is_an_error():
    (finding,) = find(verify_system(sync_cycle()), "sync-unbounded")
    assert finding.severity is Severity.ERROR
    assert "inject would never return" in finding.message


def test_sync_fanout_cycle_is_an_error():
    # One consume sends two δs: the pending list grows on every step.
    (finding,) = find(verify_system(sync_cycle(sends=2)), "sync-unbounded")
    assert finding.severity is Severity.ERROR


# ---------------------------------------------------------------------------
# structured diagnostics plumbing
# ---------------------------------------------------------------------------

def test_diagnostic_to_dict_roundtrip_fields():
    machine = Efsm("m", "s0")
    machine.add_state("orphan")
    machine.add_transition("s0", "e", "s0")
    (finding,) = find(verify_machine(machine), "unreachable-state")
    payload = finding.to_dict()
    assert payload["rule"] == "unreachable-state"
    assert payload["severity"] == "ERROR"
    assert payload["machine"] == "m"
    assert payload["state"] == "orphan"
    assert payload["hint"]


def test_rule_catalog_covers_emitted_rules():
    from repro.efsm.verify import RULES
    # Every rule exercised above is in the published catalog.
    for rule in ("unreachable-state", "unreachable-attack-state",
                 "trap-state", "dead-state", "nondeterministic-overlap",
                 "event-coverage-gap", "undeclared-variable",
                 "read-before-write", "unused-variable", "timer-unhandled",
                 "timer-never-fires", "timer-never-started",
                 "undeclared-channel", "unknown-channel-endpoint",
                 "unmatched-send", "unmatched-receive", "sync-deadlock",
                 "sync-unbounded"):
        assert rule in RULES


def explosive(value):
    raise RuntimeError("boom")


def test_verify_machine_does_not_execute_actions():
    machine = Efsm("m", "s0")
    machine.declare(n=0)
    machine.add_transition("s0", "e", "s0",
                           action=write("n", helper(explosive, x("k", 0))))
    verify_machine(machine)             # a run would raise


def test_verify_machine_probe_survives_raising_predicate():
    machine = Efsm("m", "s0")
    machine.add_state("a")
    machine.add_state("b")
    blast = helper(explosive, x("n", 0))
    machine.add_transition("s0", "e", "a", predicate=blast == 1)
    machine.add_transition("s0", "e", "b", predicate=blast == 2)
    # Both guards raise whenever they run: no witness, no crash.
    diagnostics = verify_machine(machine)
    errors = [d for d in diagnostics
              if d.rule == "nondeterministic-overlap"
              and d.severity is Severity.ERROR]
    assert errors == []


# ---------------------------------------------------------------------------
# witness traces (sync-deadlock / unmatched-send debuggability)
# ---------------------------------------------------------------------------

def test_sync_deadlock_carries_witness_trace():
    sender = _sender_machine()
    receiver = Efsm("b", "b0")
    receiver.add_state("b1")
    receiver.declare_channel("a->b")
    receiver.add_transition("b0", "warmup", "b1")
    receiver.add_transition("b1", "ping", "b1", channel="a->b")
    (finding,) = find(verify_system([sender, receiver]), "sync-deadlock")
    witness = finding.data["witness"]
    assert isinstance(witness, list) and witness
    # The shortest path: a's free move emits the ping, which then has no
    # consumer while b is still in b0.
    assert any("a:" in step for step in witness[:-1])
    assert witness[-1].startswith("a->b ? ping (no consumer")
    assert "b0" in witness[-1]
    assert finding.data["trigger"]    # legacy field stays populated


def test_sync_deadlock_witness_includes_consume_steps():
    # The wedge only appears after a consume step: a's first ping moves b
    # into a state where the *second* ping (a different channel) sticks.
    left = Efsm("a", "a0")
    left.add_state("a1")
    left.declare_channel("a->b")
    left.add_transition("a0", "go", "a1", outputs=[Output("a->b", "first")])
    left.add_transition("a1", "again", "a1",
                        outputs=[Output("a->b", "second")])
    right = Efsm("b", "b0")
    right.add_state("b1")
    right.declare_channel("a->b")
    right.add_transition("b0", "first", "b1", channel="a->b")
    # b1 has no consumer for "second".
    findings = find(verify_system([left, right]), "sync-deadlock")
    wedged = [f for f in findings if f.event == "second"]
    assert wedged
    witness = wedged[0].data["witness"]
    assert any("a->b ? first" in step for step in witness), witness
    assert witness[-1].startswith("a->b ? second (no consumer")


def test_unmatched_send_carries_witness_trace():
    sender = Efsm("a", "a0")
    sender.add_state("a1")
    sender.declare_channel("a->b")
    sender.add_transition("a0", "warmup", "a1")
    sender.add_transition("a1", "go", "a1", outputs=[Output("a->b", "ping")])
    receiver = Efsm("b", "b0")
    receiver.add_transition("b0", "other", "b0")
    (finding,) = find(verify_system([sender, receiver]), "unmatched-send")
    witness = finding.data["witness"]
    # Path to the sending state, the firing itself, then the dangling send.
    assert witness[0] == "a: a0--warmup-->a1"
    assert witness[-1] == "a->b ! ping (never consumed)"
    assert any("go" in step for step in witness)


def test_sync_unbounded_carries_witness_trace():
    findings = find(verify_system(sync_cycle()), "sync-unbounded")
    assert findings and all("witness" in f.data for f in findings)
    assert any(f.data["witness"] for f in findings)
