"""Analysis Engine (paper Section 5).

"The Analysis Engine component receives packets from Event Distributor and
state information from Call State Fact Base or Attack Scenario.  When
protocol misbehavior (deviation from protocol specification based state
machines) or attack scenario match (a transition leading to an attack
state) happens, vids raises an alert flag."

The engine types an attack-state entry from the Attack Scenario database
(the one table from machine and attack state to alert type), attributes the
Figure-5 after-close media signal to BYE DoS or toll fraud (toll fraud when
the media keeps coming *from the BYE sender*, the Section 3.1 billing-fraud
pattern), and reports specification deviations once per (call, machine,
state, event) so retransmission storms don't multiply alerts.  It keeps no
state of its own: that dedup lives on the call record and dies with it,
and the stray-request dedup is the deployment's one shared table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import TraceBus

from ..efsm.machine import FiringResult
from .alerts import Alert, AlertManager, AttackType
from .config import VidsConfig
from .factbase import CallRecord
from .rtp_machine import ATTACK_AFTER_CLOSE
from .scenarios import AttackScenario, AttackScenarioDatabase

__all__ = ["AnalysisEngine"]


class AnalysisEngine:
    """Turns state-machine observations into alerts."""

    def __init__(self, config: VidsConfig, alerts: AlertManager,
                 clock_now, first_stray: Callable[[Tuple], bool],
                 scenarios: Optional[AttackScenarioDatabase] = None,
                 trace: Optional["TraceBus"] = None) -> None:
        self.config = config
        self.alerts = alerts
        self.clock_now = clock_now
        #: ``first_stray(key)``: first sight of a stray-request dedup key?
        #: The deployment's one table answers (``CrossCallTrackers``):
        #: per-shard tables would alert once per shard instead of once.
        self._first_stray = first_stray
        self.scenarios = scenarios or AttackScenarioDatabase()
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
        scenario = self.scenarios.for_state(result.machine, state)
        attack_type = scenario.attack_type if scenario is not None else None
        detail = {
            "machine": result.machine,
            "transition": result.transition.describe() if result.transition else "",
            "event": result.event.name,
        }
        if state == ATTACK_AFTER_CLOSE:
            variables = record.system.globals
            bye_src = str(variables.get("g_bye_src_ip", ""))
            bye_port = int(variables.get("g_bye_src_port", 0) or 0)
            if self._media_from_bye_sender(variables, result.event):
                attack_type = AttackType.TOLL_FRAUD
                detail["reason"] = "BYE sender continued sending media"
            else:
                attack_type = AttackType.BYE_DOS
                detail["reason"] = "media arriving after session teardown"
            detail["bye_src_ip"] = bye_src
            detail["bye_src_port"] = bye_port
        if attack_type is None:
            attack_type = AttackType.SPEC_DEVIATION
            detail["reason"] = f"unmapped attack state {state}"
        if scenario is not None:
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

    @staticmethod
    def _media_from_bye_sender(variables, event) -> bool:
        """Does the after-close media come from the UA that sent the BYE?

        The Figure-5 attribution: toll fraud only when the BYE *sender*
        keeps transmitting.  Comparing the source IP alone conflates
        distinct UAs behind one NAT address, so the full ``(ip, port)``
        pair is matched — the media must come from the BYE sender's
        signaling port or from a media endpoint that sender negotiated at
        the same address (a UA's RTP leaves its RTP port, not its SIP
        port).  When no BYE port was recorded (pre-upgrade state, unit
        fixtures) the IP-only comparison decides, as before.
        """
        bye_ip = str(variables.get("g_bye_src_ip", "") or "")
        if not bye_ip or str(event.get("src_ip", "") or "") != bye_ip:
            return False
        bye_port = int(variables.get("g_bye_src_port", 0) or 0)
        if not bye_port:
            return True
        src_port = int(event.get("src_port", 0) or 0)
        if src_port == bye_port:
            return True
        for addr_key, port_key in (("g_offer_addr", "g_offer_port"),
                                   ("g_answer_addr", "g_answer_port")):
            if (str(variables.get(addr_key, "") or "") == bye_ip
                    and src_port == int(variables.get(port_key, 0) or 0)
                    and src_port):
                return True
        return False

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

    def _catalogued(self, attack_type: AttackType) -> AttackScenario:
        """The scenario of a pattern hosted outside the per-call machines:
        where its alert's machine, state and scenario id come from."""
        (scenario,) = self.scenarios.by_type(attack_type)
        return scenario

    def note_flood(self, target: str, event) -> None:
        scenario = self._catalogued(AttackType.INVITE_FLOOD)
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=scenario.attack_type,
            call_id=event.get("call_id"),
            source=event.get("src_ip"),
            destination=target,
            machine=scenario.machine,
            state=scenario.attack_state,
            detail={"target": target, "scenario": scenario.scenario_id},
        ))

    def note_reflection(self, source: str, event) -> None:
        """Too many INVITEs fanning out from one claimed source (DRDoS)."""
        scenario = self._catalogued(AttackType.DRDOS_REFLECTION)
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=scenario.attack_type,
            call_id=event.get("call_id"),
            source=source,
            destination=event.get("dst_ip"),
            machine=scenario.machine,
            state=scenario.attack_state,
            detail={"claimed_source": source,
                    "scenario": scenario.scenario_id,
                    "reason": "proxy used as a reflector toward the source"},
        ))

    def note_orphan_spam(self, destination: Tuple[str, int], event) -> None:
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=AttackType.MEDIA_SPAM,
            source=event.get("src_ip"),
            destination=f"{destination[0]}:{destination[1]}",
            machine="media_spam",
            state="ATTACK_Media_Spam",
            detail={"orphan_stream": True},
        ))

    def note_unsolicited(self, destination: Tuple[str, int], event) -> None:
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=AttackType.UNSOLICITED_MEDIA,
            source=event.get("src_ip"),
            destination=f"{destination[0]}:{destination[1]}",
            machine="media_spam",
            state="Packet_Rcvd",
            detail={"threshold": self.config.unsolicited_media_threshold},
        ))

    def note_foreign_register(self, aor: str, contact: Optional[str],
                              src_ip: str, dst_ip: str) -> None:
        """A REGISTER crossed the perimeter — registration hijack attempt."""
        if not self._first_stray(("register", aor, src_ip)):
            return
        scenario = self._catalogued(AttackType.REGISTRATION_HIJACK)
        self.alerts.raise_alert(Alert(
            time=self.clock_now(),
            attack_type=scenario.attack_type,
            source=src_ip,
            destination=dst_ip,
            machine=scenario.machine,
            state=scenario.attack_state,
            detail={"aor": aor, "contact": contact,
                    "scenario": scenario.scenario_id,
                    "reason": "REGISTER from outside the perimeter"},
        ))

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
