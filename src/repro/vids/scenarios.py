"""Attack Scenario table (the paper's Figure-3 component).

"The Attack Scenario component is a collection of known attack patterns,
including the intermediate states and transitions that lead to attack
states."  Each :class:`AttackScenario` documents one known pattern: which
machine hosts it, which attack state marks the match, whether the
cross-protocol interaction is required to see it, the paper section that
describes the threat, and the recommended operator response.
:data:`SCENARIOS` is the one table from (machine, attack state) to the
pattern entering that state matches: the Analysis Engine types every
machine verdict there.  The Figure-4 machine hosts two patterns (per flood
target and per claimed source) and the perimeter REGISTER check no machine,
so those three are named instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .alerts import AttackType
from .patterns.media_spam import SPAM_ATTACK, SPAM_UNSOLICITED
from .rtp_machine import (
    ATTACK_AFTER_CLOSE,
    ATTACK_CODEC,
    ATTACK_FLOOD,
    ATTACK_SPAM,
    ATTACK_TOLL_FRAUD,
)
from .sip_machine import ATTACK_BYE, ATTACK_CANCEL, ATTACK_HIJACK

__all__ = ["AttackScenario", "BUILTIN_SCENARIOS", "SCENARIOS",
           "INVITE_FLOOD", "DRDOS_REFLECTION", "REGISTRATION_HIJACK"]


@dataclass(frozen=True)
class AttackScenario:
    """One known attack pattern."""

    scenario_id: str
    name: str
    attack_type: AttackType
    machine: str                  # which protocol machine hosts the pattern
    attack_state: str             # entering this state = scenario match
    paper_section: str
    cross_protocol: bool          # needs the SIP<->RTP interaction
    description: str
    response: str                 # suggested operator action

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.scenario_id}] {self.name} ({self.attack_type.value})"


INVITE_FLOOD = AttackScenario(
    scenario_id="S1",
    name="INVITE request flooding",
    attack_type=AttackType.INVITE_FLOOD,
    machine="invite_flood",
    attack_state="ATTACK_Invite_Flood",
    paper_section="3.1 / 6 (Figure 4)",
    cross_protocol=False,
    description=("More than N INVITEs for one callee within window T1 "
                 "— overwhelms a terminal or a proxy."),
    response="Rate-limit or block the offending sources; notify callee.",
)

DRDOS_REFLECTION = AttackScenario(
    scenario_id="S9",
    name="DRDoS reflection via proxy",
    attack_type=AttackType.DRDOS_REFLECTION,
    machine="invite_flood",
    attack_state="ATTACK_Invite_Flood",
    paper_section="3.1",
    cross_protocol=False,
    description=("Spoofed requests fanned out through the proxy with "
                 "the victim as claimed source, so the victim drowns in "
                 "responses: many INVITEs from one claimed source to "
                 "many different callees within the window."),
    response="Drop requests from the claimed source; notify the victim.",
)

REGISTRATION_HIJACK = AttackScenario(
    scenario_id="S10",
    name="Registration hijacking",
    attack_type=AttackType.REGISTRATION_HIJACK,
    machine="distributor",
    attack_state="-",
    paper_section="extension (threat implied by §3.1's missing auth)",
    cross_protocol=False,
    description=("A REGISTER crossing the enterprise perimeter tries to "
                 "rebind a local address-of-record to an outside "
                 "contact; legitimate phones register from inside."),
    response=("Drop perimeter REGISTERs; enable registrar digest "
              "authentication (repro.sip.auth)."),
)

BUILTIN_SCENARIOS: Tuple[AttackScenario, ...] = (
    INVITE_FLOOD,
    AttackScenario(
        scenario_id="S2",
        name="Third-party BYE teardown",
        attack_type=AttackType.BYE_DOS,
        machine="sip",
        attack_state=ATTACK_BYE,
        paper_section="3.1",
        cross_protocol=False,
        description=("A BYE for an established call from a source outside "
                     "the participant set (misbehaving UA-C)."),
        response="Drop the BYE at the perimeter; alert both participants.",
    ),
    AttackScenario(
        scenario_id="S3",
        name="BYE DoS (media after close)",
        attack_type=AttackType.BYE_DOS,
        machine="rtp",
        attack_state=ATTACK_AFTER_CLOSE,
        paper_section="3.1 / 6 (Figure 5)",
        cross_protocol=True,
        description=("RTP still arriving, from anyone but the BYE sender, "
                     "after the session closed and timer T expired: a "
                     "spoofed BYE tore the call down."),
        response="Re-signal the call; drop BYEs from spoofed sources.",
    ),
    AttackScenario(
        scenario_id="S4",
        name="Third-party CANCEL",
        attack_type=AttackType.CANCEL_DOS,
        machine="sip",
        attack_state=ATTACK_CANCEL,
        paper_section="3.1",
        cross_protocol=False,
        description=("A CANCEL for a pending INVITE from a source outside "
                     "the participant set."),
        response="Drop the CANCEL; let the call attempt proceed.",
    ),
    AttackScenario(
        scenario_id="S5",
        name="Call hijacking re-INVITE",
        attack_type=AttackType.CALL_HIJACK,
        machine="sip",
        attack_state=ATTACK_HIJACK,
        paper_section="3.1",
        cross_protocol=False,
        description=("A new INVITE inside a pre-existing dialog from a "
                     "non-participant, typically redirecting media."),
        response="Drop the re-INVITE; verify the dialog's media endpoints.",
    ),
    AttackScenario(
        scenario_id="S6",
        name="Media spamming",
        attack_type=AttackType.MEDIA_SPAM,
        machine="rtp",
        attack_state=ATTACK_SPAM,
        paper_section="3.2 / 6 (Figure 6)",
        cross_protocol=True,
        description=("Fabricated RTP with the session's SSRC but a sequence "
                     "number or timestamp jump beyond Δn/Δt (or a foreign "
                     "SSRC injected into the stream)."),
        response="Filter the stream by source; renegotiate SSRC/ports.",
    ),
    AttackScenario(
        scenario_id="S7",
        name="RTP packet flooding",
        attack_type=AttackType.RTP_FLOOD,
        machine="rtp",
        attack_state=ATTACK_FLOOD,
        paper_section="3.2",
        cross_protocol=True,
        description=("Media arriving far above the negotiated codec packet "
                     "rate, degrading QoS or crashing phones."),
        response="Police the stream to the negotiated rate.",
    ),
    AttackScenario(
        scenario_id="S8",
        name="Codec change",
        attack_type=AttackType.CODEC_CHANGE,
        machine="rtp",
        attack_state=ATTACK_CODEC,
        paper_section="3.2",
        cross_protocol=True,
        description=("RTP payload types never negotiated in SDP — 'changing "
                     "the encoding scheme' mid-call."),
        response="Drop off-profile payloads; force renegotiation.",
    ),
    AttackScenario(
        scenario_id="S11",
        name="Toll fraud (BYE sender keeps streaming)",
        attack_type=AttackType.TOLL_FRAUD,
        machine="rtp",
        attack_state=ATTACK_TOLL_FRAUD,
        paper_section="3.1 / 6 (Figure 5)",
        cross_protocol=True,
        description=("RTP after the session closed and timer T expired, from "
                     "the BYE sender's address and its signalling or "
                     "negotiated media port: billing stopped, media did not."),
        response="Cut the stream at the perimeter; bill the session on.",
    ),
    AttackScenario(
        scenario_id="S12",
        name="Unsolicited media",
        attack_type=AttackType.UNSOLICITED_MEDIA,
        machine="media_spam",
        attack_state=SPAM_UNSOLICITED,
        paper_section="3.2 / 6 (Figure 6, extension)",
        cross_protocol=False,
        description=("More in-profile RTP than the threshold toward a "
                     "destination no session negotiated."),
        response="Drop media to un-negotiated destinations.",
    ),
    AttackScenario(
        scenario_id="S13",
        name="Media spamming, orphan stream",
        attack_type=AttackType.MEDIA_SPAM,
        machine="media_spam",
        attack_state=SPAM_ATTACK,
        paper_section="3.2 / 6 (Figure 6)",
        cross_protocol=False,
        description=("A sequence number or timestamp jump beyond Δn/Δt (or a "
                     "new SSRC) in a stream no session negotiated."),
        response="Filter the stream by source.",
    ),
    DRDOS_REFLECTION,
    REGISTRATION_HIJACK,
)

#: (machine, attack state) -> the pattern that entering the state matches.
SCENARIOS: Dict[Tuple[str, str], AttackScenario] = {
    (scenario.machine, scenario.attack_state): scenario
    for scenario in BUILTIN_SCENARIOS
    if scenario not in (INVITE_FLOOD, DRDOS_REFLECTION, REGISTRATION_HIJACK)}
