"""Unit tests for communicating EFSM systems: channels, priority, globals."""

import pytest

from repro.efsm import (
    Channel,
    DefinitionError,
    Efsm,
    EfsmSystem,
    Event,
    ManualClock,
    Output,
    channel_name,
)
from repro.efsm.guards import start, v, write


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
    system.connect("a", "b")
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
    system.connect("a", "b")
    fired = system.inject("a", Event("data"))
    assert system.states() == {"a": "s1", "b": "synced"}
    assert [f.machine for f in fired] == ["a", "b"]


def test_sync_events_have_priority_over_data():
    """A queued sync event is consumed before the next data event."""
    system = EfsmSystem()
    b = Efsm("b", "idle")
    b.add_state("synced")
    # In idle, a data packet is a deviation; after sync it is fine.
    b.add_transition("idle", "delta", "synced", channel="a->b")
    b.add_transition("synced", "packet", "synced")
    a = Efsm("a", "s0")
    system.add_machine(a)
    system.add_machine(b)
    channel = system.connect("a", "b")
    # The sync event is already waiting when the data packet arrives.
    channel.put(Event("delta", channel="a->b"))
    fired = system.inject("b", Event("packet"))
    # delta processed first, then the packet: no deviation.
    assert [f.event.name for f in fired] == ["delta", "packet"]
    assert not any(f.deviation for f in fired)


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
    with pytest.raises(DefinitionError):
        system.connect("ghost", "other")


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
    system.connect("a", "b")
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


class TestChannel:
    def test_fifo_order(self):
        channel = Channel("a", "b")
        for index in range(5):
            channel.put(Event(f"e{index}", channel=channel.name))
        names = []
        while channel:
            names.append(channel.get().name)
        assert names == [f"e{index}" for index in range(5)]
        assert channel.get() is None

    def test_len_counts_queued_events(self):
        channel = Channel("a", "b")
        assert not channel and len(channel) == 0
        channel.put(Event("x", channel=channel.name))
        assert channel and len(channel) == 1

    def test_channel_name_convention(self):
        assert channel_name("sip", "rtp") == "sip->rtp"
