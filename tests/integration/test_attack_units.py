"""Unit-level tests for the attack injector framework."""

import pytest

from repro.attacks import (
    Attack,
    ByeTeardownAttack,
    CancelDosAttack,
    DrdosReflectionAttack,
    InviteFloodAttack,
    RtpFloodAttack,
    attacker_host,
    find_established_pair,
)
from repro.telephony import TestbedParams, build_testbed


def make_testbed():
    testbed = build_testbed(TestbedParams(phones_per_network=2, seed=1))
    testbed.register_all()
    testbed.sim.run(until=2.0)
    return testbed


class TestFramework:
    def test_attacker_host_created_once(self):
        testbed = make_testbed()
        first = attacker_host(testbed)
        second = attacker_host(testbed)
        assert first is second
        assert first.ip in testbed.network.hosts
        # Attached to the Internet cloud.
        assert any(link.other(first) is testbed.internet
                   for link in first.links)

    def test_find_established_pair_none_when_idle(self):
        testbed = make_testbed()
        assert find_established_pair(testbed) is None

    def test_find_established_pair_locates_both_legs(self):
        testbed = make_testbed()
        call = testbed.phones_a[0].place_call("sip:b1@b.example.com", 60.0)
        testbed.network.run(until=10.0)
        pair = find_established_pair(testbed)
        assert pair is not None
        assert pair.caller_call is call
        assert pair.caller_phone is testbed.phones_a[0]
        assert pair.callee_phone is testbed.phones_b[0]
        assert pair.callee_call.call_id == call.call_id

    def test_base_attack_requires_install(self):
        with pytest.raises(NotImplementedError):
            Attack(0.0).install(make_testbed())

    def test_launched_flag(self):
        attack = InviteFloodAttack(1.0, count=3)
        assert not attack.launched
        testbed = make_testbed()
        attack.install(testbed)
        testbed.network.run(until=5.0)
        assert attack.launched
        assert len(attack.events) == 3


class TestParameterValidation:
    def test_bye_spoof_mode_checked(self):
        with pytest.raises(ValueError):
            ByeTeardownAttack(0.0, spoof="bogus")

    def test_rtp_flood_mode_checked(self):
        with pytest.raises(ValueError):
            RtpFloodAttack(0.0, mode="bogus")


class TestRetryUntilTarget:
    def test_bye_attack_waits_for_an_established_call(self):
        testbed = make_testbed()
        attack = ByeTeardownAttack(3.0, spoof="none", max_wait=60.0)
        attack.install(testbed)
        # No call yet at t=3; one establishes around t=12.
        testbed.sim.schedule_at(
            10.0, lambda: testbed.phones_a[0].place_call(
                "sip:b1@b.example.com", 60.0))
        testbed.network.run(until=40.0)
        assert attack.launched
        assert attack.events[0][0] > 10.0

    def test_cancel_attack_polls_every_quarter_second(self):
        # A call rings for about a second: a 2 s poll can miss it.
        testbed = make_testbed()
        attack = CancelDosAttack(3.0, max_wait=1.0)
        polls = []
        attack.find = lambda testbed: polls.append(testbed.sim.now)
        attack.install(testbed)
        testbed.network.run(until=10.0)
        assert polls == [3.0, 3.25, 3.5, 3.75]

    def test_attack_gives_up_after_max_wait(self):
        testbed = make_testbed()
        attack = CancelDosAttack(3.0, max_wait=5.0)
        attack.install(testbed)
        testbed.network.run(until=30.0)
        assert not attack.launched


class TestDrdosConstruction:
    def test_callee_fanout(self):
        testbed = make_testbed()
        attack = DrdosReflectionAttack(1.0, count=6, callees=2,
                                       victim_ip="203.0.113.5")
        attack.install(testbed)
        testbed.network.run(until=5.0)
        assert len(attack.events) == 6
        targets = {entry[1].split("-> ")[1].split(" ")[0]
                   for entry in attack.events}
        assert targets == {"b1@b.example.com", "b2@b.example.com"}
