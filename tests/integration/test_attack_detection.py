"""Integration: every Section-3 attack is detected end to end.

This is the executable form of the paper's Section 7.5 claim: each known
attack pattern is detected (100% detection on the attack matrix), against a
benign background workload that itself raises no alarms (see
test_false_positives.py).
"""

import pytest

from repro.attacks import CATALOGUE, ByeTeardownAttack, CancelDosAttack
from repro.telephony import (
    ScenarioParams,
    TestbedParams,
    WorkloadParams,
    run_scenario,
)
from repro.vids import AttackType

# Long-lived background calls: the attacks need a victim call that stays
# established through the strike window.
WORKLOAD = WorkloadParams(mean_interarrival=25.0, mean_duration=400.0,
                          horizon=150.0)


def run_attack(attack, seed=11):
    return run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=seed, phones_per_network=4),
        workload=WORKLOAD,
        with_vids=True,
        attacks=(attack,),
        drain_time=90.0,
    ))


CASES = [(factory(40.0), expected) for factory, expected in CATALOGUE.values()]


@pytest.mark.parametrize("attack,expected",
                         CASES, ids=[a.name + "-" + e.value
                                     for a, e in CASES])
def test_attack_detected(attack, expected):
    result = run_attack(attack)
    assert attack.launched, "attack found no target call to strike"
    count = result.vids.alert_count(expected)
    assert count >= 1, (
        f"expected {expected.value}, alerts: "
        f"{[str(a) for a in result.vids.alerts]}")


def test_detection_delay_of_bye_dos_is_bounded_by_timer_t():
    """Section 7.5: detection sensitivity is governed by the timers."""
    attack = ByeTeardownAttack(40.0, spoof="peer")
    result = run_attack(attack)
    assert attack.launched
    detected_at = (result.vids.alert_manager.first_time(AttackType.TOLL_FRAUD)
                   or result.vids.alert_manager.first_time(AttackType.BYE_DOS))
    assert detected_at is not None
    launch_time = attack.events[0][0]
    delay = detected_at - launch_time
    timer_t = result.params.vids_config.bye_inflight_timer
    # Detection happens shortly after timer T; allow transit + one packet gap.
    assert timer_t <= delay < timer_t + 1.0


def test_spoofed_cancel_is_undetectable_as_paper_admits():
    """The paper: without authentication, a CANCEL spoofed as the upstream
    proxy is indistinguishable from a genuine one."""
    attack = CancelDosAttack(40.0, spoof_source=True)
    result = run_attack(attack)
    assert attack.launched
    assert result.vids.alert_count(AttackType.CANCEL_DOS) == 0


def test_cross_protocol_ablation_misses_bye_dos():
    """Disabling the SIP->RTP synchronization (the paper's core mechanism)
    makes the spoofed-BYE attack invisible."""
    from repro.vids import DEFAULT_CONFIG

    attack = ByeTeardownAttack(40.0, spoof="peer")
    result = run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=11, phones_per_network=4),
        workload=WORKLOAD,
        with_vids=True,
        vids_config=DEFAULT_CONFIG.with_overrides(cross_protocol=False),
        attacks=(attack,),
        drain_time=90.0,
    ))
    assert attack.launched
    assert result.vids.alert_count(AttackType.TOLL_FRAUD) == 0
    assert result.vids.alert_count(AttackType.BYE_DOS) == 0
