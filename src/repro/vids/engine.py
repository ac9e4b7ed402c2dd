"""Analysis Engine (paper Section 5).

"The Analysis Engine component receives packets from Event Distributor and
state information from Call State Fact Base or Attack Scenario.  When
protocol misbehavior (deviation from protocol specification based state
machines) or attack scenario match (a transition leading to an attack
state) happens, vids raises an alert flag."

The engine types every attack-state entry from the Attack Scenario table
(the one table from machine and attack state to alert type) — the machines
decide every verdict, toll fraud and unsolicited media included — and
reports specification deviations once per (call, machine, state, event) so
retransmission storms don't multiply alerts.  It keeps no state of its
own: that dedup lives on the call record and dies with it, and the
stray-request dedup is the deployment's one shared table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import TraceBus

from ..efsm.machine import FiringResult
from .alerts import Alert, AlertManager, AttackType
from .factbase import CallRecord
from .scenarios import (DRDOS_REFLECTION, INVITE_FLOOD, REGISTRATION_HIJACK,
                        SCENARIOS, AttackScenario)

__all__ = ["AnalysisEngine"]


class AnalysisEngine:
    """Turns state-machine observations into alerts."""

    def __init__(self, alerts: AlertManager, clock_now,
                 first_stray: Callable[[Tuple], bool],
                 trace: Optional["TraceBus"] = None) -> None:
        self.alerts = alerts
        self.clock_now = clock_now
        #: ``first_stray(key)``: first sight of a stray-request dedup key?
        #: The deployment's one table answers (``CrossCallTrackers``):
        #: per-shard tables would alert once per shard instead of once.
        self._first_stray = first_stray
        #: Call-scoped trace bus (None keeps the hot path untouched).
        self.trace = trace

    # -- state machine results ------------------------------------------------

    def handle_result(self, record: CallRecord, result: FiringResult) -> None:
        transition = result.transition
        if transition is None:
            self._note_deviation(record, result)
        elif transition.attack and result.from_state != result.to_state:
            self._raise_attack(record, result)

    def _raise_attack(self, record: CallRecord, result: FiringResult) -> None:
        state = result.to_state
        detail = {
            "machine": result.machine,
            "transition": result.transition.describe() if result.transition else "",
            "event": result.event.name,
        }
        scenario = SCENARIOS.get((result.machine, state))
        if scenario is None:
            attack_type = AttackType.SPEC_DEVIATION
            detail["reason"] = f"unmapped attack state {state}"
        else:
            attack_type = scenario.attack_type
            detail["scenario"] = scenario.scenario_id
            detail["scenario_name"] = scenario.name
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=attack_type,
            call_id=record.call_id,
            source=result.event.get("src_ip"),
            destination=result.event.get("dst_ip"),
            machine=result.machine,
            state=state,
            detail=detail,
        ))

    def _note_deviation(self, record: CallRecord, result: FiringResult) -> None:
        key = (result.machine, result.from_state, result.event.name)
        seen = record.deviation_keys
        if seen is None:
            seen = record.deviation_keys = set()
        elif key in seen:
            # Deduplicated repeat (retransmission storm): no alert, but the
            # forensic timeline still records that the deviation happened.
            if self.trace is not None:
                self.trace.emit("deviation-suppressed", self.clock_now(),
                                call_id=record.call_id,
                                machine=result.machine,
                                state=result.from_state,
                                event=result.event.name)
            return
        seen.add(key)
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=AttackType.SPEC_DEVIATION,
            call_id=record.call_id,
            source=result.event.get("src_ip"),
            destination=result.event.get("dst_ip"),
            machine=result.machine,
            state=result.from_state,
            detail={"event": result.event.describe(),
                    "reason": "no transition enabled (specification deviation)"},
        ))

    # -- out-of-band observations --------------------------------------------

    def _matched(self, scenario: AttackScenario, detail: dict,
                 **where: Optional[str]) -> None:
        """An alert typed, placed and named by a scenario row."""
        self.alerts.raise_alert(Alert(
            time=self.clock_now(), attack_type=scenario.attack_type,
            machine=scenario.machine, state=scenario.attack_state,
            detail=detail, **where))

    def note_flood(self, target: str, event) -> None:
        self._matched(INVITE_FLOOD, {
            "target": target, "scenario": INVITE_FLOOD.scenario_id},
            call_id=event.get("call_id"), source=event.get("src_ip"),
            destination=target)

    def note_reflection(self, source: str, event) -> None:
        """Too many INVITEs fanning out from one claimed source (DRDoS)."""
        self._matched(DRDOS_REFLECTION, {
            "claimed_source": source, "scenario": DRDOS_REFLECTION.scenario_id,
            "reason": "proxy used as a reflector toward the source"},
            call_id=event.get("call_id"), source=source,
            destination=event.get("dst_ip"))

    def note_orphan_media(self, destination: Tuple[str, int], event,
                          state: str) -> None:
        """An orphan stream entered an attack state of the Figure-6
        machine."""
        scenario = SCENARIOS[("media_spam", state)]
        self._matched(scenario, {"scenario": scenario.scenario_id},
                      source=event.get("src_ip"),
                      destination=f"{destination[0]}:{destination[1]}")

    def note_foreign_register(self, aor: str, contact: Optional[str],
                              src_ip: str, dst_ip: str) -> None:
        """A REGISTER crossed the perimeter — registration hijack attempt."""
        if not self._first_stray(("register", aor, src_ip)):
            return
        self._matched(REGISTRATION_HIJACK, {
            "aor": aor, "contact": contact,
            "scenario": REGISTRATION_HIJACK.scenario_id,
            "reason": "REGISTER from outside the perimeter"},
            source=src_ip, destination=dst_ip)

    def note_internal_error(self, call_id: Optional[str], error: BaseException,
                            src_ip: Optional[str] = None,
                            dst_ip: Optional[str] = None) -> None:
        """Crash containment fired: the offending call was quarantined."""
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=AttackType.IDS_INTERNAL,
            call_id=call_id,
            source=src_ip,
            destination=dst_ip,
            machine="vids",
            state="-",
            detail={"error": f"{type(error).__name__}: {error}",
                    "quarantined": call_id is not None,
                    "reason": "unexpected exception during packet analysis"},
        ))

    def note_fuzzing(self, source: str, count: int, window: float) -> None:
        """One source exceeded the malformed-packet rate threshold."""
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=AttackType.PROTOCOL_FUZZING,
            source=source,
            machine="classifier",
            state="-",
            detail={"malformed_in_window": count, "window": window,
                    "reason": "sustained malformed traffic from one source"},
        ))

    def note_overload(self, backlog: float, watermark: float) -> None:
        """CPU backlog crossed the high watermark; RTP inspection shed."""
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=AttackType.OVERLOAD_SHED,
            machine="vids",
            state="-",
            detail={"backlog": backlog, "high_watermark": watermark,
                    "reason": "signaling-only mode; RTP forwarded fail-open"},
        ))

    def note_stray_request(self, method: str, call_id: Optional[str],
                           src_ip: str, dst_ip: str) -> None:
        """A non-INVITE request for a call the fact base has never seen."""
        if not self._first_stray(("stray", method, call_id, src_ip)):
            return
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=AttackType.SPEC_DEVIATION,
            call_id=call_id,
            source=src_ip,
            destination=dst_ip,
            machine="distributor",
            state="-",
            detail={"reason": f"{method} for unknown call"},
        ))
