"""Unit tests for the EFSM definition and interpreter."""

import pytest

from repro.efsm import (
    DefinitionError,
    Efsm,
    EfsmInstance,
    Event,
    ManualClock,
    NondeterminismError,
    Output,
    Severity,
    TIMER_CHANNEL,
    errors_only,
    verify_machine,
)
from repro.efsm.guards import (cancel, helper, start, truthy, v, when, write,
                               x)


def plus_one(count):
    return count + 1


def turnstile():
    """A classic coin/push turnstile with a coin counter."""
    machine = Efsm("turnstile", "locked")
    machine.add_state("unlocked")
    machine.declare(coins=0)
    count = write("coins", helper(plus_one, v("coins")))
    machine.add_transition("locked", "coin", "unlocked", action=count)
    machine.add_transition("unlocked", "push", "locked")
    machine.add_transition("unlocked", "coin", "unlocked", action=count)
    assert not errors_only(verify_machine(machine))
    return machine


def test_transitions_and_actions():
    instance = EfsmInstance(turnstile())
    assert instance.state == "locked"
    result = instance.deliver(Event("coin"))
    assert not result.deviation
    assert instance.state == "unlocked"
    assert instance.variables["coins"] == 1
    instance.deliver(Event("coin"))
    assert instance.variables["coins"] == 2
    instance.deliver(Event("push"))
    assert instance.state == "locked"


def test_deviation_when_no_transition():
    instance = EfsmInstance(turnstile())
    result = instance.deliver(Event("push"))   # push while locked
    assert result.deviation
    assert instance.state == "locked"
    assert result.from_state == result.to_state == "locked"


def test_predicates_select_transition():
    machine = Efsm("gate", "idle")
    machine.add_state("open")
    machine.add_state("alarm", attack=True)
    machine.add_transition("idle", "badge", "open",
                           predicate=truthy(x("valid")))
    machine.add_transition("idle", "badge", "alarm",
                           predicate=~truthy(x("valid")), attack=True)
    instance = EfsmInstance(machine)
    result = instance.deliver(Event("badge", {"valid": False}))
    assert result.attack
    assert instance.state == "alarm"


def test_attack_flag_inferred_from_target_state():
    machine = Efsm("m", "s0")
    machine.add_state("bad", attack=True)
    transition = machine.add_transition("s0", "evil", "bad")
    assert transition.attack


def test_nondeterminism_detected_at_instantiation():
    """Two unguarded candidates are nondeterministic for every input: the
    first instance freezes the definition, and freezing refuses them."""
    machine = Efsm("nd", "s0")
    machine.add_state("s1")
    machine.add_state("s2")
    machine.add_transition("s0", "go", "s1")
    machine.add_transition("s0", "go", "s2")
    with pytest.raises(NondeterminismError):
        EfsmInstance(machine)
    assert not machine.frozen


def test_a_frozen_definition_refuses_construction():
    machine = Efsm("m", "s0")
    machine.add_state("s1")
    machine.add_transition("s0", "go", "s1")
    EfsmInstance(machine)
    assert machine.frozen
    for build in (lambda: machine.add_transition("s1", "go", "s0"),
                  lambda: machine.add_state("s2"),
                  lambda: machine.declare(n=0),
                  lambda: machine.declare_global(g=0),
                  lambda: machine.declare_channel("c")):
        with pytest.raises(DefinitionError, match="frozen"):
            build()
    assert len(machine.transitions) == 1 and "s2" not in machine.states


def test_restore_refuses_a_state_the_definition_does_not_have():
    machine = Efsm("m", "s0")
    machine.add_state("s1")
    machine.add_transition("s0", "go", "s1")
    instance = EfsmInstance(machine)
    snapshot = instance.snapshot()
    with pytest.raises(DefinitionError, match="no state 'RTP_Rcvd'"):
        instance.restore({**snapshot, "state": "RTP_Rcvd"})
    assert instance.state == "s0"


def nd_machine(first, second):
    machine = Efsm("nd", "s0")
    machine.add_state("s1")
    machine.add_state("s2")
    machine.add_transition("s0", "go", "s1", predicate=first)
    machine.add_transition("s0", "go", "s2", predicate=second)
    return machine


def overlaps(machine):
    return [(finding.severity, finding.message)
            for finding in verify_machine(machine)
            if finding.rule == "nondeterministic-overlap"]


def test_verify_machine_decides_determinism_exactly():
    n = x("n", 0)
    ((severity, message),) = overlaps(nd_machine(n > 0, n >= 1))
    assert severity is Severity.ERROR and "x.n=" in message
    # Disjoint for every valuation, the boundary included.
    assert overlaps(nd_machine(n > 0, n <= 0)) == []
    # An ordering against a string: determinism cannot be proven.
    ((severity, message),) = overlaps(nd_machine(n > 0, n <= "a"))
    assert severity is Severity.WARNING and "cannot be proven" in message


def test_a_callable_is_refused_where_data_belongs():
    """A transition is data: a guard is a Guard, an action Statements, and
    a helper a named function — no callable stands in for any of them."""
    def bump(instance, event):
        instance.variables["n"] = 1

    machine = Efsm("m", "s0")
    for build in ({"predicate": lambda instance, event: True},
                  {"action": bump}, {"action": (write("n", 1), bump)}):
        with pytest.raises(DefinitionError, match="repro.efsm.guards"):
            machine.add_transition("s0", "e", "s0", **build)
    assert machine.transitions == []
    with pytest.raises(TypeError, match="named function"):
        helper(lambda a: a, x("a"))


def test_unknown_state_in_transition_rejected():
    machine = Efsm("m", "s0")
    with pytest.raises(DefinitionError):
        machine.add_transition("s0", "e", "nowhere")


def rules_of_errors(machine):
    return [finding.rule for finding in errors_only(verify_machine(machine))]


def test_speclint_rejects_unreachable_states():
    machine = Efsm("m", "s0")
    machine.add_state("island")
    assert "unreachable-state" in rules_of_errors(machine)


def test_speclint_rejects_undeclared_input_channel():
    machine = Efsm("m", "s0")
    machine.add_state("s1", final=True)
    machine.add_transition("s0", "sync", "s1", channel="peer->m")
    assert rules_of_errors(machine) == ["undeclared-channel"]
    machine.declare_channel("peer->m")
    assert rules_of_errors(machine) == []


def test_speclint_rejects_undeclared_output_channel():
    machine = Efsm("m", "s0")
    machine.add_state("s1", final=True)
    machine.add_transition("s0", "go", "s1",
                           outputs=[Output("m->peer", "delta")])
    assert rules_of_errors(machine) == ["undeclared-channel"]
    machine.declare_channel("m->peer")
    assert rules_of_errors(machine) == []


def test_channel_events_only_match_channel_transitions():
    machine = Efsm("m", "s0")
    machine.add_state("s1")
    machine.add_transition("s0", "sync", "s1", channel="a->m")
    instance = EfsmInstance(machine)
    # Data event with the same name does not match the channel transition.
    assert instance.deliver(Event("sync")).deviation
    assert not instance.deliver(Event("sync", channel="a->m")).deviation
    assert instance.state == "s1"


def test_final_states():
    machine = Efsm("m", "s0")
    machine.add_state("done", final=True)
    machine.add_transition("s0", "finish", "done")
    instance = EfsmInstance(machine)
    assert instance.state not in machine.final_states
    instance.deliver(Event("finish"))
    assert instance.state in machine.final_states


def test_outputs_built_from_context():
    machine = Efsm("m", "s0")
    machine.add_state("s1")
    machine.declare(name="x")
    machine.add_transition(
        "s0", "go", "s1", action=write("name", x("who")),
        outputs=[Output("m->peer", "delta",
                        {"who": v("name"), "kind": "greeting"})])
    instance = EfsmInstance(machine)
    result = instance.deliver(Event("go", {"who": "y"}, time=3.0))
    assert len(result.outputs) == 1
    output = result.outputs[0]
    assert output.name == "delta"
    assert output.channel == "m->peer"
    # Output arguments are read after the statements ran.
    assert output.args == {"who": "y", "kind": "greeting"}
    assert output.time == 3.0


def test_statements_run_in_order_and_see_earlier_writes():
    def plus(a, b):
        return a + b

    machine = Efsm("m", "s0")
    machine.declare(n=0, log=())
    machine.add_transition("s0", "e", "s0", action=(
        write("n", helper(plus, v("n", 0), x("k", 1))),
        when(v("n", 0) > 2, write("log", helper(plus, v("log", ()), ("big",)))),
        write("n", helper(plus, v("n", 0), 10)),
        when(v("n", 0) > "a", write("log", ("never",)))))   # TypeError: skip
    instance = EfsmInstance(machine)
    instance.deliver(Event("e", {"k": 2}))
    assert instance.variables["n"] == 12 and instance.variables["log"] == ()
    instance.deliver(Event("e", {"k": 2}))
    assert instance.variables["n"] == 24
    assert instance.variables["log"] == ("big",)


def test_statements_start_and_cancel_timers_with_term_arguments():
    clock = ManualClock()
    machine = Efsm("m", "s0")
    machine.add_state("fired")
    machine.add_transition("s0", "arm", "s0",
                           action=start("T", x("after"), who=x("who")))
    machine.add_transition("s0", "disarm", "s0", action=cancel("T"))
    machine.add_transition("s0", "T", "fired", channel=TIMER_CHANNEL,
                           action=write("who", x("who")))
    instance = EfsmInstance(machine, clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    instance.deliver(Event("arm", {"after": 5.0, "who": "a"}))
    instance.deliver(Event("disarm"))
    clock.advance(10.0)
    assert instance.state == "s0"
    instance.deliver(Event("arm", {"after": 2.0, "who": "b"}))
    clock.advance(2.0)
    assert instance.state == "fired" and instance.variables["who"] == "b"


def test_a_written_constant_must_be_immutable_plain_data():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0", action=write("ok", (1, ("a",))))
    for value in ({"k": 1}, object(), (1, {2: 3})):
        with pytest.raises(DefinitionError, match="immutable"):
            machine.add_transition("s0", "e", "s0",
                                   action=when(x("k") == 1,
                                               write("bad", value)))


def test_a_declared_default_must_be_immutable_plain_data(tmp_path):
    # A declared default is held to the same test as a written constant:
    # one object would be shared by every call built from the definition.
    machine = Efsm("m", "s0")
    machine.declare(ok=0, frozen=frozenset(), empty=(), pair=(0, ("a",)))
    machine.declare_global(frozen=frozenset(), empty=())
    with open(tmp_path / "handle", "w") as handle:
        for value in (lambda: 1, (n for n in range(3)), {}, set(), (0, []),
                      handle):
            for declare in (machine.declare, machine.declare_global):
                with pytest.raises(DefinitionError, match="immutable"):
                    declare(bad=value)
    assert "bad" not in machine.variables
    assert "bad" not in machine.global_variables


def test_default_output_forwards_event_args():
    machine = Efsm("m", "s0")
    machine.add_state("s1")
    machine.add_transition("s0", "go", "s1",
                           outputs=[Output("m->peer", "delta")])
    instance = EfsmInstance(machine)
    result = instance.deliver(Event("go", {"k": 1}))
    assert result.outputs[0].args == {"k": 1}


def test_timers_via_manual_clock():
    clock = ManualClock()
    machine = Efsm("m", "waiting")
    machine.add_state("expired")
    machine.add_transition(
        "waiting", "start", "waiting",
        action=start("T", 5.0))
    machine.add_transition("waiting", "T", "expired", channel=TIMER_CHANNEL)
    instance = EfsmInstance(machine, clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    instance.deliver(Event("start"))
    assert instance.active_timers == ["T"]
    clock.advance(4.0)
    assert instance.state == "waiting"
    clock.advance(2.0)
    assert instance.state == "expired"
    assert instance.active_timers == []


def test_timer_restart_and_cancel():
    clock = ManualClock()
    machine = Efsm("m", "s0")
    machine.add_state("fired")
    machine.add_transition("s0", "arm", "s0", action=start("T", 5.0))
    machine.add_transition("s0", "disarm", "s0", action=cancel("T"))
    machine.add_transition("s0", "T", "fired", channel=TIMER_CHANNEL)
    instance = EfsmInstance(machine, clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    instance.deliver(Event("arm"))
    clock.advance(3.0)
    instance.deliver(Event("arm"))      # restart
    clock.advance(3.0)
    assert instance.state == "s0"       # old deadline did not fire
    instance.deliver(Event("disarm"))
    clock.advance(10.0)
    assert instance.state == "s0"


def test_timer_without_scheduler_raises():
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "arm", "s0", action=start("T", 1.0))
    instance = EfsmInstance(machine)
    with pytest.raises(RuntimeError):
        instance.deliver(Event("arm"))


def test_variables_local_shadow_globals():
    from repro.efsm import Variables
    shared = {"x": "global", "g": 1}
    variables = Variables({"x": "local"}, shared)
    assert variables["x"] == "local"
    assert variables["g"] == 1
    variables["x"] = "updated"
    assert shared["x"] == "global"      # local write does not leak
    variables["g"] = 2
    assert shared["g"] == 2             # global write is shared
    assert "missing" not in variables
    assert variables.get("missing", "d") == "d"
    snapshot = variables.snapshot()
    assert snapshot["x"] == "updated" and snapshot["g"] == 2


def test_a_named_helper_is_keyed_by_qualname_and_closure():
    """Two builds that differ only in a value the helper closes over are
    two keys; the same build is one key, named the same in every
    process."""
    def make(limit):
        def over(value):
            return value > limit
        return over

    one, two = (helper(make(limit), x("n", 0)) for limit in (1, 2))
    assert one.key != two.key
    assert one.key == helper(make(1), x("n", 0)).key
    assert one.key[2] == f"{__name__}:{make(1).__qualname__}"

    seen = []

    def remembered(value):
        return value in seen

    with pytest.raises(TypeError, match="plain data"):
        helper(remembered, x("n", 0)).key


# Helpers that write: directly, through a mutating method, through a
# same-module callee, through a scratch memo, or as a term's leaf.

def writes_state(variables):
    variables["count"] = 1
    return True


def mutates_list(variables):
    variables["seen"].append(1)
    return True


def _poke(variables):
    variables["count"] = 9
    return True


def transitive_writer(variables):
    return _poke(variables)


def uses_scratch(holder):
    memo = holder.scratch
    if memo is None:
        memo = holder.scratch = {}
    memo["ok"] = True
    return memo["ok"]


def leaf_writer(counts):
    counts["last"] = 2
    return 1


@pytest.mark.parametrize("fn", [
    writes_state, mutates_list, transitive_writer, uses_scratch,
    leaf_writer, lambda variables: variables.pop("x"),
], ids=lambda fn: fn.__name__)
def test_a_helper_that_writes_is_refused(fn):
    with pytest.raises(TypeError, match="only reads"):
        helper(fn)


def test_every_shipped_helper_only_reads():
    from repro.vids import DEFAULT_CONFIG
    from repro.vids.spec import CallSpec

    helper(plus_one, v("count", 0))
    functions = {
        term.value
        for cross_protocol in (True, False)
        for machine in CallSpec.build(DEFAULT_CONFIG.with_overrides(
            cross_protocol=cross_protocol)).machines
        for transition in machine.transitions
        for top in transition.terms() for term in top.walk()
        if term.kind == "helper"}
    assert len(functions) >= 10
    for fn in functions:
        helper(fn)
