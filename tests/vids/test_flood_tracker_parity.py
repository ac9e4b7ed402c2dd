"""Tracker parity: ``InviteFloodTracker`` against bare Figure-4 instances.

The tracker keeps a window per target — the Figure-4 instance's state and
locals, its T1 a deadline rather than a scheduled timer.  The reference
here is the machine itself: one ``EfsmInstance`` per target on a
``ManualClock``, T1 a real timer, an instance back in INIT forgotten.  A
seeded INVITE stream — benign INVITEs, a flood past N, branch
retransmissions, windows closing at exactly a packet's time, and a
checkpoint restored mid-window — must raise the same flood alerts at the
same times, and leave the same ``counter()`` and the same
``snapshot()["machines"]`` after every packet.
"""

import random

import pytest

from repro.efsm import ManualClock
from repro.efsm.events import Event
from repro.efsm.machine import EfsmInstance
from repro.vids.patterns.invite_flood import (FLOOD_INIT,
                                              InviteFloodTracker,
                                              build_invite_flood_machine)

THRESHOLD, WINDOW = 3, 1.0
TARGETS = ("alice@b", "bob@b", "carol@b", "flooded@b")


class Reference:
    """One bare Figure-4 instance per target, T1 on the clock."""

    def __init__(self, definition, clock, alerts):
        self.definition, self.clock, self.alerts = definition, clock, alerts
        self.instances = {}

    def _instance(self, target):
        instance = self.instances.get(target)
        if instance is None:
            instance = self.instances[target] = EfsmInstance(
                self.definition, clock_now=self.clock.now,
                timer_scheduler=self.clock.schedule)
        return instance

    def observe_invite(self, target, event):
        result = self._instance(target).deliver(event)
        if result.attack and result.from_state != result.to_state:
            self.alerts.append((target, self.clock.now()))

    def live(self):
        return {target: instance for target, instance
                in self.instances.items() if instance.state != FLOOD_INIT}

    def counter(self, target):
        instance = self.live().get(target)
        return instance.variables["pck_counter"] if instance else 0

    def snapshot(self):
        return {target: instance.snapshot()
                for target, instance in self.live().items()}

    def restore(self, machines):
        for instance in self.instances.values():
            instance.cancel_all_timers()
        self.instances = {}
        for target, machine in machines.items():
            self._instance(target).restore(machine)


def stream(seed):
    """``(time, target, branch)``; times on a quarter-second grid, so a
    window of 1.0 s closes at exactly the time of a later packet."""
    rng = random.Random(seed)
    time, sent, out = 0.0, {}, []
    for index in range(400):
        time += rng.choice((0.0, 0.25, 0.25, 0.5, 1.0))
        if 120 <= index < 140:
            target = "flooded@b"            # a burst well past N
        else:
            target = rng.choice(TARGETS)
        if sent.get(target) and rng.random() < 0.2:
            branch = rng.choice(sent[target])   # a retransmission
        else:
            branch = f"z9hG4bK{index}"
            sent.setdefault(target, []).append(branch)
        out.append((time, target, branch))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_tracker_equals_the_figure_4_machine(seed):
    definition = build_invite_flood_machine(THRESHOLD, WINDOW)
    clock, reference_clock = ManualClock(), ManualClock()
    alerts, reference_alerts = [], []
    tracker = InviteFloodTracker(
        definition, clock.now,
        on_attack=lambda target, event: alerts.append((target, clock.now())))
    reference = Reference(definition, reference_clock, reference_alerts)
    checkpoint = None
    closes_on_a_packet = 0
    for index, (time, target, branch) in enumerate(stream(seed)):
        if index == 203:
            # Rewind both, mid-window.  A supervisor restores from a clock
            # callback, so the clock moves on before the next packet.
            discarded = tracker.snapshot()["machines"]
            tracker.restore(checkpoint[0])
            reference.restore(checkpoint[1])
        closes_on_a_packet += sum(
            1 for machine in reference.snapshot().values()
            if machine["timers"]["T1"]["at"] == time)
        for each in (clock, reference_clock):
            each.advance(time - each.now())
        assert clock.now() == reference_clock.now() == time
        event = Event("INVITE", {"branch": branch, "src_ip": "10.9.0.1"},
                      time=time)
        tracker.observe_invite(target, event)
        reference.observe_invite(target, event)
        assert alerts == reference_alerts
        for each in TARGETS:
            assert tracker.counter(each) == reference.counter(each)
        assert tracker.snapshot()["machines"] == reference.snapshot()
        if index == 200:
            checkpoint = (tracker.snapshot(), reference.snapshot())
    assert alerts and closes_on_a_packet
    assert checkpoint[1] and discarded != checkpoint[1]
