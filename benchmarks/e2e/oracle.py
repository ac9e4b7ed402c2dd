"""Correctness checks run beside the timing: is every verdict right?

Alerts are compared as plain tuples (:func:`alert_key`), so the oracle
can be exercised on hand-built data without a pipeline.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Sequence, Tuple

#: Counters that must match exactly between two analyses of one capture
#: (the parity bar of tests/integration/test_live_parity.py).
EXACT_COUNTERS = (
    "packets_processed", "sip_messages", "rtp_packets", "rtcp_packets",
    "other_packets", "keepalive_packets", "malformed_sip", "malformed_rtp",
    "malformed_rtcp", "calls_created", "calls_deleted", "packets_shed",
    "time_regressions",
)

#: Slack before an injector's logged time: the log is written when the
#: packet leaves the attacker, the alert is stamped at the perimeter.
EARLY = 0.001

AlertKey = Tuple[float, str, str, str, str, str, str]


def alert_key(alert) -> AlertKey:
    return (round(alert.time, 6), alert.attack_type.value,
            alert.call_id or "", alert.source or "",
            alert.destination or "", alert.machine or "", alert.state or "")


def alert_keys(pipeline) -> List[AlertKey]:
    return sorted(alert_key(alert) for alert in pipeline.alerts)


def counters(pipeline) -> Tuple[int, ...]:
    return tuple(getattr(pipeline.metrics, name) for name in EXACT_COUNTERS)


def check_benign(alerts: Sequence[AlertKey]) -> Tuple[int, List[str]]:
    """Benign traffic: one check that passes when nothing alerted, and
    one failed check per false positive."""
    return 1 + len(alerts), [f"false positive: {key}" for key in alerts]


def check_attacks(instances: Iterable, alerts: Sequence[AlertKey]
                  ) -> Tuple[int, List[str]]:
    """The generator's attack log against the alerts.

    One check per launched instance (at least one alert of an expected
    type inside its window, on its victim call when the alert names a
    call the injector knew) and one per alert (it falls inside the window
    of an instance that allows its type).  Returns (checks, failures).
    """
    instances = list(instances)
    failures = []
    for instance in instances:
        if not any(_inside(instance, key) and key[1] in instance.expected
                   and _same_victim(instance, key) for key in alerts):
            failures.append(f"missed: {instance.kind} at {instance.time:.3f}")
    for key in alerts:
        if not any(_inside(instance, key) and key[1] in instance.allowed
                   for instance in instances):
            failures.append(f"unexplained: {key}")
    return len(instances) + len(alerts), failures


def _inside(instance, key: AlertKey) -> bool:
    return instance.time - EARLY <= key[0] < instance.window_end


def _same_victim(instance, key: AlertKey) -> bool:
    # Floods have no victim call: their alerts carry the attacker's own
    # Call-ID, which no log knows.
    return (not instance.victim_call_id or not key[2]
            or key[2] == instance.victim_call_id)


def check_parity(alerts: Sequence[AlertKey], counts: Sequence[int],
                 reference_alerts: Sequence[AlertKey],
                 reference_counts: Sequence[int]) -> Tuple[int, List[str]]:
    """Two analyses of one capture must agree alert for alert and counter
    for counter; one failure per difference."""
    ours, theirs = Counter(alerts), Counter(reference_alerts)
    failures = [f"alert differs: {key}"
                for key in ((ours - theirs) + (theirs - ours)).elements()]
    failures.extend(
        f"counter differs: {name} {mine} != {other}"
        for name, mine, other in zip(EXACT_COUNTERS, counts, reference_counts)
        if mine != other)
    return max(len(ours), len(theirs)) + len(EXACT_COUNTERS), failures
