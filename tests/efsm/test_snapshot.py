"""Snapshot/restore round-trips for EFSM instances and systems.

The checkpointing tier (docs/ROBUSTNESS.md "Supervision & failover")
rests on one invariant: ``restore(snapshot())`` rebuilds the identical
running state — control state, variable vectors, live timers with their
original absolute deadlines, queued channel events, and the shared
globals dict — and a re-snapshot of the restored state is equal to the
original snapshot (so incremental checkpoints can reuse it verbatim).
"""

import pytest

from repro.efsm import (
    DefinitionError,
    Efsm,
    EfsmInstance,
    EfsmSystem,
    Event,
    ManualClock,
    Output,
    TIMER_CHANNEL,
    errors_only,
    verify_machine,
)
from repro.efsm.guards import helper, start, v, write, x


def plus_one(count):
    return count + 1


def appended(items, item):
    return items + (item,)


def counting_machine(name="counter"):
    machine = Efsm(name, "idle")
    machine.add_state("busy")
    machine.declare(ticks=0, payloads=())
    tag = x("tag", None)
    on_go = (write("ticks", helper(plus_one, v("ticks"))),
             write("payloads", helper(appended, v("payloads"), tag)),
             start("expire", 5.0, tag=tag))
    machine.add_transition("idle", "go", "busy", action=on_go)
    machine.add_transition("busy", "expire", "idle", channel=TIMER_CHANNEL)
    assert not errors_only(verify_machine(machine))
    return machine


def test_instance_snapshot_restore_round_trip():
    clock = ManualClock()
    instance = EfsmInstance(counting_machine(), clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    clock.advance(2.0)
    instance.deliver(Event("go", {"tag": "a"}, time=clock.now()))
    assert instance.active_timers == ["expire"]

    snapshot = instance.snapshot()

    # Mutate past the snapshot point, then restore.
    clock.advance(5.0)            # fires the timer -> back to idle
    assert instance.state == "idle"
    instance.deliver(Event("go", {"tag": "b"}, time=clock.now()))

    restored = EfsmInstance(counting_machine(), clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    restored.restore(snapshot)
    assert restored.state == "busy"
    assert restored.variables["ticks"] == 1
    assert restored.variables["payloads"] == ("a",)
    assert restored.active_timers == ["expire"]
    # A re-snapshot is byte-identical — including the original absolute
    # deadline, even though the restore re-armed relative to a later now.
    assert restored.snapshot() == snapshot


def test_restored_timer_fires_with_original_args():
    clock = ManualClock()
    instance = EfsmInstance(counting_machine(), clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    instance.deliver(Event("go", {"tag": "x"}))
    snapshot = instance.snapshot()

    clock.advance(1.0)
    restored = EfsmInstance(counting_machine(), clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    restored.restore(snapshot)
    fired = []
    restored.on_timer_event = lambda event: fired.append(
        restored.deliver(event))
    # Original deadline was t=5.0; we are at t=1.0, so 4 more seconds.
    clock.advance(3.9)
    assert restored.state == "busy" and fired == []
    clock.advance(0.2)
    assert restored.state == "idle"
    (result,) = fired
    assert result.event.name == "expire"
    assert result.event.args["tag"] == "x"
    assert (result.from_state, result.to_state) == ("busy", "idle")


def test_expired_deadline_fires_on_next_advance():
    """A timer that expired while the shard was down fires immediately."""
    clock = ManualClock()
    instance = EfsmInstance(counting_machine(), clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    instance.deliver(Event("go", {"tag": "late"}))
    snapshot = instance.snapshot()

    clock.advance(60.0)           # well past the t=5 deadline
    restored = EfsmInstance(counting_machine(), clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    restored.restore(snapshot)
    assert restored.state == "busy"
    clock.advance(0.0)
    assert restored.state == "idle"


def test_restore_rejects_wrong_machine():
    clock = ManualClock()
    instance = EfsmInstance(counting_machine("a"), clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    other = EfsmInstance(counting_machine("b"), clock_now=clock.now,
                         timer_scheduler=clock.schedule)
    with pytest.raises(DefinitionError):
        other.restore(instance.snapshot())


def test_restore_cancels_preexisting_timers():
    clock = ManualClock()
    source = EfsmInstance(counting_machine(), clock_now=clock.now,
                          timer_scheduler=clock.schedule)
    snapshot = source.snapshot()   # idle, no timers

    target = EfsmInstance(counting_machine(), clock_now=clock.now,
                          timer_scheduler=clock.schedule)
    target.deliver(Event("go", {"tag": "stale"}))
    assert target.active_timers
    target.restore(snapshot)
    assert target.active_timers == []
    assert target.state == "idle"
    clock.advance(10.0)            # the stale timer must not fire
    assert target.state == "idle"


def relay_system(clock):
    """Two machines: ``ping`` emits to ``pong`` over a sync channel."""
    ping = Efsm("ping", "start")
    ping.add_state("sent")
    ping.declare(sent=0)
    ping.declare_channel("ping->pong")

    # Outputs are built after the action ran, so ``n`` is the new count.
    ping.add_transition(
        "start", "kick", "sent",
        action=write("sent", helper(plus_one, v("sent"))),
        outputs=[Output("ping->pong", "relay", {"n": v("sent")})])

    pong = Efsm("pong", "waiting")
    pong.add_state("got")
    pong.declare(seen=0)
    pong.declare_channel("ping->pong")
    on_relay = write("seen", x("n"))
    pong.add_transition("waiting", "relay", "got", channel="ping->pong",
                        action=on_relay)
    pong.add_transition("got", "relay", "got", channel="ping->pong",
                        action=on_relay)
    assert not errors_only(verify_machine(pong))

    system = EfsmSystem(clock_now=clock.now, timer_scheduler=clock.schedule)
    system.add_machine(ping)
    system.add_machine(pong)
    return system


def test_system_snapshot_restores_machines_channels_and_globals():
    clock = ManualClock()
    system = relay_system(clock)
    system.globals["shared"] = {"score": 7}
    system.inject("ping", Event("kick"))
    assert system.machines["ping"].state == "sent"
    assert system.machines["pong"].state == "got"

    snapshot = system.snapshot()
    # Every δ was consumed inside the step that sent it: a channel holds
    # nothing between steps, so a checkpoint has no queue to carry.
    assert set(snapshot) == {"globals", "machines", "deliveries"}

    fresh = relay_system(clock)
    original_globals = fresh.globals     # identity must be preserved
    fresh.restore(snapshot)
    assert fresh.globals is original_globals
    assert fresh.globals["shared"] == {"score": 7}
    assert fresh.globals["shared"] is not snapshot["globals"]["shared"]
    assert fresh.machines["ping"].state == "sent"
    assert fresh.machines["pong"].state == "got"
    assert fresh.machines["pong"].variables["seen"] == 1
    assert fresh.deliveries == system.deliveries == 2
    # The restored channel carries a δ delivered on it as before.
    fired = fresh.inject("pong", Event("relay", {"n": 5},
                                       channel="ping->pong", time=1.0))
    assert [(f.machine, f.event.name) for f in fired] == [("pong", "relay")]
    assert fresh.machines["pong"].variables["seen"] == 5


def test_system_restore_rejects_unknown_machine():
    clock = ManualClock()
    system = relay_system(clock)
    snapshot = system.snapshot()
    snapshot["machines"]["ghost"] = {"machine": "ghost", "state": "x",
                                     "locals": {}, "timers": {}}
    fresh = relay_system(clock)
    with pytest.raises(DefinitionError):
        fresh.restore(snapshot)


# ---------------------------------------------------------------------------
# copy_state: a closed domain of state values
# ---------------------------------------------------------------------------

def test_copy_state_rejects_uncheckpointable_values():
    """Atoms, tuples and frozensets are shared, plain dict/list/set copied
    deep; anything outside that domain raises instead of being smuggled
    through ``copy.deepcopy`` — subclasses, generators, handles, objects."""
    from collections import Counter, OrderedDict, defaultdict, namedtuple

    from repro.efsm.machine import copy_state

    plain = {"pair": ("a", 1), "members": frozenset({"x"}),
             "nested": {"list": [1, {"k": {2}}]}}
    clone = copy_state(plain)
    assert clone == plain
    assert clone["pair"] is plain["pair"]
    assert clone["members"] is plain["members"]
    clone["nested"]["list"][1]["k"].add(3)
    assert plain["nested"]["list"][1]["k"] == {2}

    Point = namedtuple("Point", "x y")
    with open(__file__, encoding="utf-8") as handle:
        outside = [
            defaultdict(list), Counter({"x": 2}), OrderedDict(k=1),
            Point(1, 2), (n for n in range(3)), handle, object(),
            {"outer": defaultdict(int)}, ("ok", [Point(1, 2)]),
        ]
        for value in outside:
            with pytest.raises(TypeError, match="cannot be checkpointed"):
                copy_state(value)

    # The same check guards a checkpoint: a machine holding such a value
    # fails loudly at snapshot time, not silently at restore.
    machine = Efsm("tally", "idle")
    machine.declare(buckets=None)
    instance = EfsmInstance(machine)
    instance.variables["buckets"] = defaultdict(int)
    with pytest.raises(TypeError, match="defaultdict"):
        instance.snapshot()
