"""The oracle on hand-built data: no pipeline, no capture."""

import _paths  # noqa: F401 - import path side effect

import oracle
from workloads import AttackInstance


def key(time, kind, call_id=""):
    return (time, kind, call_id, "src", "dst", "machine", "state")


INSTANCES = [
    AttackInstance("invite-flood", ("invite-flood",),
                   ("invite-flood", "drdos-reflection"), 10.0, 12.5),
    AttackInstance("bye-teardown-peer", ("bye-dos", "toll-fraud"),
                   ("bye-dos", "toll-fraud"), 14.7, 17.5, "victim@a"),
]


def test_clean_run_passes():
    alerts = [key(10.2, "invite-flood", "attacker-1"),
              key(10.3, "drdos-reflection", "attacker-2"),
              key(15.0, "toll-fraud", "victim@a")]
    assert oracle.check_attacks(INSTANCES, alerts) == (5, [])


def test_alert_on_another_call_does_not_count_as_detection():
    alerts = [key(10.2, "invite-flood"), key(15.0, "toll-fraud", "other@a")]
    _, failures = oracle.check_attacks(INSTANCES, alerts)
    assert failures == ["missed: bye-teardown-peer at 14.700"]


def test_alert_outside_every_window_or_of_a_foreign_type_is_unexplained():
    late = key(17.5, "toll-fraud", "victim@a")      # window is half-open
    foreign = key(10.5, "media-spam")
    alerts = [key(10.2, "invite-flood"), key(15.0, "bye-dos", "victim@a"),
              late, foreign]
    _, failures = oracle.check_attacks(INSTANCES, alerts)
    assert failures == [f"unexplained: {late}", f"unexplained: {foreign}"]


def test_benign_counts_every_alert_as_a_false_positive():
    assert oracle.check_benign([]) == (1, [])
    checks, failures = oracle.check_benign([key(1.0, "bye-dos")])
    assert checks == 2 and len(failures) == 1


def test_parity_counts_every_difference():
    alerts = [key(1.0, "bye-dos"), key(2.0, "rtp-flood")]
    counts = tuple(range(len(oracle.EXACT_COUNTERS)))
    assert oracle.check_parity(alerts, counts, alerts, counts)[1] == []
    shifted = (counts[0] + 1,) + counts[1:]
    _, failures = oracle.check_parity(alerts, counts, alerts[:1], shifted)
    assert len(failures) == 2
    assert failures[0].startswith("alert differs")
    assert failures[1].startswith("counter differs: packets_processed")
