"""Alert model and manager.

"When protocol misbehavior (e.g. deviation from protocol specification based
state machines) or attack scenario match (i.e. a transition leading to an
attack state) happens, vids raises an alert flag and notifies administrators
for further analysis." (Section 5)
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["AttackType", "Alert", "AlertManager"]


class AttackType(enum.Enum):
    """Known attack scenarios plus the generic deviation category."""

    INVITE_FLOOD = "invite-flood"
    DRDOS_REFLECTION = "drdos-reflection"
    BYE_DOS = "bye-dos"
    CANCEL_DOS = "cancel-dos"
    MEDIA_SPAM = "media-spam"
    RTP_FLOOD = "rtp-flood"
    CODEC_CHANGE = "codec-change"
    CALL_HIJACK = "call-hijack"
    TOLL_FRAUD = "toll-fraud"
    UNSOLICITED_MEDIA = "unsolicited-media"
    REGISTRATION_HIJACK = "registration-hijack"
    SPEC_DEVIATION = "spec-deviation"
    #: Sustained malformed traffic from one source (protocol fuzzing).
    PROTOCOL_FUZZING = "protocol-fuzzing"
    #: The IDS contained an internal error and quarantined a call.
    IDS_INTERNAL = "ids-internal"
    #: CPU overload: RTP deep inspection shed, signaling-only mode.
    OVERLOAD_SHED = "overload-shed"


@dataclass
class Alert:
    """One raised alert."""

    time: float
    attack_type: AttackType
    call_id: Optional[str] = None
    source: Optional[str] = None
    destination: Optional[str] = None
    machine: Optional[str] = None
    state: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"[{self.time:9.3f}s] {self.attack_type.value:18s} "
                f"call={self.call_id} src={self.source} dst={self.destination}"
                f" {self.detail}")


class AlertManager:
    """Collects alerts and keeps per-type counters."""

    def __init__(self) -> None:
        self.alerts: List[Alert] = []
        self.counts: Counter = Counter()
        #: Hook invoked for every raised alert (call-scoped tracing).
        self.on_alert: Optional[Callable[[Alert], None]] = None

    def raise_alert(self, alert: Alert) -> Alert:
        self.alerts.append(alert)
        self.counts[alert.attack_type] += 1
        if self.on_alert is not None:
            self.on_alert(alert)
        return alert

    def by_type(self, attack_type: AttackType) -> List[Alert]:
        return [a for a in self.alerts if a.attack_type is attack_type]

    def count(self, attack_type: Optional[AttackType] = None) -> int:
        if attack_type is None:
            return len(self.alerts)
        return self.counts[attack_type]

    def first_time(self, attack_type: AttackType) -> Optional[float]:
        """Time of the earliest alert of a type (detection-delay metric)."""
        for alert in self.alerts:
            if alert.attack_type is attack_type:
                return alert.time
        return None

    def clear(self) -> None:
        self.alerts.clear()
        self.counts.clear()

    # -- checkpoint / restore -------------------------------------------------

    def snapshot(self, previous: Optional[Tuple[Alert, ...]] = None
                 ) -> Tuple[Alert, ...]:
        """The alert log as a tuple.

        The log only grows, so its length is its version: while it has not
        moved, ``previous`` (the snapshot taken last time) is handed back
        instead of one more copy of every alert ever raised.
        """
        if previous is not None and len(previous) == len(self.alerts):
            return previous
        return tuple(self.alerts)

    def restore(self, snapshot: Tuple[Alert, ...]) -> None:
        """Rewind to a :meth:`snapshot`, in place; ``counts`` is re-derived."""
        self.clear()
        self.alerts.extend(snapshot)
        self.counts.update(alert.attack_type for alert in snapshot)
