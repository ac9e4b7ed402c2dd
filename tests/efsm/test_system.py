"""Unit tests for communicating EFSM systems: the macro-step, globals."""

import pytest

from repro.efsm import (
    DefinitionError,
    Efsm,
    EfsmSystem,
    Event,
    ManualClock,
    Output,
    channel_name,
    parse_channel,
)
from repro.efsm.guards import start, v, write
from repro.efsm.system import CASCADE_CAP

from .test_verify import sync_cycle


def make_ping_pong():
    """Machine A forwards data events to machine B over a channel."""
    a = Efsm("a", "s0")
    a.add_state("s1")
    a.add_transition("s0", "data", "s1",
                     outputs=[Output("a->b", "delta")])
    b = Efsm("b", "idle")
    b.add_state("synced")
    b.add_transition("idle", "delta", "synced", channel="a->b")
    system = EfsmSystem()
    system.add_machine(a)
    system.add_machine(b)
    return system


def test_output_events_flow_across_channel():
    system = EfsmSystem()
    a = Efsm("a", "s0")
    a.add_state("s1")
    a.add_transition("s0", "data", "s1", outputs=[Output("a->b", "delta")])
    b = Efsm("b", "idle")
    b.add_state("synced")
    b.add_transition("idle", "delta", "synced", channel="a->b")
    system.add_machine(a)
    system.add_machine(b)
    fired = system.inject("a", Event("data"))
    assert system.states() == {"a": "s1", "b": "synced"}
    assert [f.machine for f in fired] == ["a", "b"]


def three_machines():
    """``a`` fans a data event out to ``b`` and ``c``; each answers with a
    δ of its own, so the cascade nests two levels deep."""
    a = Efsm("a", "s0")
    a.add_state("s1")
    a.add_transition("s0", "data", "s1",
                     outputs=[Output("a->b", "d1"), Output("a->c", "d2")])
    a.add_transition("s1", "data", "s1",
                     outputs=[Output("a->b", "d1"), Output("a->c", "d2")])
    b = Efsm("b", "s0")
    b.add_transition("s0", "d1", "s0", channel="a->b",
                     outputs=[Output("b->c", "d3"), Output("b->env", "out")])
    b.add_transition("s0", "d4", "s0", channel="c->b")
    c = Efsm("c", "s0")
    c.add_transition("s0", "d2", "s0", channel="a->c",
                     outputs=[Output("c->b", "d4")])
    c.add_transition("s0", "d3", "s0", channel="b->c")
    system = EfsmSystem()
    for machine in (a, b, c):
        system.add_machine(machine)
    return system


def test_every_delta_is_consumed_in_order_before_inject_returns():
    """A firing's δs are consumed before ``inject`` returns, breadth
    first in the order they were sent; a δ addressed to no machine of the
    system goes to the environment (the output hook) only."""
    system = three_machines()
    sent = []
    system.on_output = lambda sender, event: sent.append(
        (sender, event.channel, event.name))
    for _ in range(2):
        sent.clear()
        fired = system.inject("a", Event("data"))
        assert [(f.machine, f.event.name) for f in fired] == [
            ("a", "data"), ("b", "d1"), ("c", "d2"), ("c", "d3"),
            ("b", "d4")]
        assert not any(f.deviation for f in fired)
        assert sent == [("a", "a->b", "d1"), ("a", "a->c", "d2"),
                        ("b", "b->c", "d3"), ("b", "b->env", "out"),
                        ("c", "c->b", "d4")]
    assert system.deliveries == 10


def test_globals_shared_between_machines():
    system = EfsmSystem()
    a = Efsm("a", "s0")
    a.declare_global(shared=0)
    a.add_transition("s0", "write", "s0", action=write("shared", 42))
    b = Efsm("b", "s0")
    b.declare_global(shared=0)
    b.declare(read=0)
    b.add_transition("s0", "read", "s0", action=write("read", v("shared")))
    system.add_machine(a)
    system.add_machine(b)
    system.inject("a", Event("write"))
    system.inject("b", Event("read"))
    assert system.machines["b"].variables.local["read"] == 42
    assert system.globals["shared"] == 42


def test_deviations_and_attacks_recorded():
    system = EfsmSystem()
    machine = Efsm("m", "s0")
    machine.add_state("bad", attack=True)
    machine.add_transition("s0", "evil", "bad")
    system.add_machine(machine)
    fired = (system.inject("m", Event("unknown"))
             + system.inject("m", Event("evil")))
    assert [result.deviation for result in fired] == [True, False]
    assert [result.attack for result in fired] == [False, True]


def test_on_result_hook_sees_every_firing():
    system = make_ping_pong()
    seen = []
    system.on_result = lambda result: seen.append(
        (result.machine, result.event.name))
    system.inject("a", Event("data"))
    assert seen == [("a", "data"), ("b", "delta")]


def test_all_final():
    system = EfsmSystem()
    a = Efsm("a", "s0")
    a.add_state("end", final=True)
    a.add_transition("s0", "fin", "end")
    b = Efsm("b", "s0")
    b.add_state("end", final=True)
    b.add_transition("s0", "fin", "end")
    system.add_machine(a)
    system.add_machine(b)
    assert not system.all_final
    system.inject("a", Event("fin"))
    assert not system.all_final
    system.inject("b", Event("fin"))
    assert system.all_final


def test_duplicate_machine_rejected():
    system = EfsmSystem()
    system.add_machine(Efsm("a", "s0"))
    with pytest.raises(DefinitionError):
        system.add_machine(Efsm("a", "s0"))


def test_unknown_machine_rejected():
    system = EfsmSystem()
    with pytest.raises(DefinitionError):
        system.inject("ghost", Event("x"))


@pytest.mark.parametrize("sends", [1, 2])
def test_a_delta_cycle_is_refused_at_the_cascade_cap(sends):
    # speclint's sync-unbounded pair, run without the spec gate: a kick
    # starts a ping-pong (or a fan-out) that never quiesces.
    system = EfsmSystem()
    for machine in sync_cycle(sends=sends):
        system.add_machine(machine)
    with pytest.raises(DefinitionError, match=r"within 64 consumes: "
                       r"'(ping|pong)' still pending on '(a->b|b->a)' "
                       r"for '(a|b)'"):
        system.inject("a", Event("kick"))
    # The kick, then CASCADE_CAP consumes, and no more.
    assert system.deliveries == 1 + CASCADE_CAP


def fan_out(pings):
    """``r`` answers a kick with ``pings`` δs; ``s`` swallows each."""
    relay = Efsm("r", "r0")
    relay.declare_channel("r->s")
    relay.add_transition("r0", "kick", "r0",
                         outputs=[Output("r->s", "ping")] * pings)
    sink = Efsm("s", "s0")
    sink.declare_channel("r->s")
    sink.add_transition("s0", "ping", "s0", channel="r->s")
    system = EfsmSystem()
    system.add_machine(relay)
    system.add_machine(sink)
    return system


def test_a_cascade_of_exactly_the_cap_returns():
    system = fan_out(CASCADE_CAP)
    system.inject("r", Event("kick"))
    assert system.deliveries == 1 + CASCADE_CAP
    with pytest.raises(DefinitionError, match="'ping' still pending"):
        fan_out(CASCADE_CAP + 1).inject("r", Event("kick"))


def test_timer_events_drain_channels():
    clock = ManualClock()
    system = EfsmSystem(clock_now=clock.now, timer_scheduler=clock.schedule)
    a = Efsm("a", "s0")
    a.add_state("armed")
    a.add_state("done")
    a.add_transition("s0", "go", "armed", action=start("T", 1.0))
    a.add_transition("armed", "T", "done", channel="timer",
                     outputs=[Output("a->b", "delta")])
    b = Efsm("b", "idle")
    b.add_state("synced")
    b.add_transition("idle", "delta", "synced", channel="a->b")
    system.add_machine(a)
    system.add_machine(b)
    system.inject("a", Event("go"))
    clock.advance(2.0)
    assert system.states() == {"a": "done", "b": "synced"}


def test_cancel_all_timers():
    clock = ManualClock()
    system = EfsmSystem(clock_now=clock.now, timer_scheduler=clock.schedule)
    a = Efsm("a", "s0")
    a.add_state("done")
    a.add_transition("s0", "go", "s0", action=start("T", 1.0))
    a.add_transition("s0", "T", "done", channel="timer")
    system.add_machine(a)
    system.inject("a", Event("go"))
    system.cancel_all_timers()
    clock.advance(5.0)
    assert system.states()["a"] == "s0"


def test_channel_names_round_trip():
    assert channel_name("sip", "rtp") == "sip->rtp"
    assert parse_channel(channel_name("sip", "rtp")) == ("sip", "rtp")
    assert parse_channel("timer") == (None, None)


def quiet_system():
    """``m`` moves s0 -> s1 quietly, then s1 -> end (final) and, from s1,
    into an attack state; a quiet firing sends ``n`` a δ."""
    m = Efsm("m", "s0")
    m.add_state("s1")
    m.add_state("end", final=True)
    m.add_state("bad", attack=True)
    m.add_transition("s0", "go", "s1", outputs=[Output("m->n", "delta")])
    m.add_transition("s1", "tick", "s1")
    m.add_transition("s1", "fin", "end")
    m.add_transition("s1", "evil", "bad")
    m.add_transition("end", "fin", "end")
    n = Efsm("n", "idle")
    n.add_state("synced")
    n.add_transition("idle", "delta", "synced", channel="m->n")
    system = EfsmSystem()
    system.add_machine(m)
    system.add_machine(n)
    return system


def test_a_quiet_firing_is_counted_but_not_materialised():
    """With ``on_quiet`` set, a firing whose entry is not observable moves
    the state, sends its δs and bumps ``deliveries``, but builds no result:
    only attacks, deviations and entries into a final state reach
    ``on_result`` and ``inject``'s caller."""
    system = quiet_system()
    quiet, seen = [], []
    system.on_quiet = lambda: quiet.append(system.deliveries)
    system.on_result = lambda result: seen.append(
        (result.machine, result.event.name))
    fired = []
    for name in ("go", "tick", "nope", "fin", "fin"):
        fired += system.inject("m", Event(name))
    assert system.states() == {"m": "end", "n": "synced"}
    assert system.deliveries == 6
    # go, its δ, tick, and the self-loop in the final state are quiet.
    assert quiet == [0, 1, 2, 5]
    assert seen == [(f.machine, f.event.name) for f in fired] == [
        ("m", "nope"), ("m", "fin")]
    assert fired[0].deviation and not fired[1].deviation
    system = quiet_system()
    system.on_quiet = lambda: None
    system.inject("m", Event("go"))
    assert [f.attack for f in system.inject("m", Event("evil"))] == [True]


