"""Attack detection patterns (paper Section 6).

Two patterns are standalone machines instantiated outside the per-call
systems:

- :mod:`invite_flood` — Figure 4, one machine per flood target;
- :mod:`media_spam` — Figure 6, one machine per orphan-stream destination.

:mod:`cross_call` holds their trackers — the state that spans calls — as
one object per deployment.

The remaining Section-3 attacks are detected by attack-annotated transitions
*inside* the per-call machines (cross-protocol by construction):

- **BYE DoS** — Figure 5: the SIP machine's BYE transition emits δ_SIP→RTP;
  the RTP machine arms timer T and treats any media after RTP_Close as the
  attack signal (``repro.vids.rtp_machine``, state ``ATTACK_Media_After_
  Close``), and a BYE from a non-participant source is flagged directly
  (``repro.vids.sip_machine``, state ``ATTACK_Bye_DoS``);
- **toll fraud** — the same after-close signal from the BYE sender, a
  guard of the RTP machine (state ``ATTACK_Toll_Fraud``);
- **CANCEL DoS** — a CANCEL that matches neither the INVITE branch nor a
  session participant (``ATTACK_Cancel_DoS``);
- **call hijack** — an in-dialog INVITE from outside the participant set
  (``ATTACK_Hijack``);
- **RTP flooding / codec change** — rate and payload-type predicates on the
  RTP machine's steady state (``ATTACK_RTP_Flood``, ``ATTACK_Codec_Change``).
"""

from .cross_call import CrossCallTrackers
from .invite_flood import (
    FLOOD_ATTACK,
    FLOOD_COUNTING,
    FLOOD_INIT,
    InviteFloodTracker,
    build_invite_flood_machine,
)
from .media_spam import (
    SPAM_ATTACK,
    SPAM_COUNTING,
    SPAM_INIT,
    SPAM_UNSOLICITED,
    OrphanMediaTracker,
    build_media_spam_machine,
)

__all__ = [
    "CrossCallTrackers",
    "FLOOD_ATTACK",
    "FLOOD_COUNTING",
    "FLOOD_INIT",
    "InviteFloodTracker",
    "OrphanMediaTracker",
    "SPAM_ATTACK",
    "SPAM_COUNTING",
    "SPAM_INIT",
    "SPAM_UNSOLICITED",
    "build_invite_flood_machine",
    "build_media_spam_machine",
]
