"""Attack traffic injectors for every Section-3 threat.

Each injector drives real packets through the simulated network (crossing
the vids perimeter) and is paired, in :data:`CATALOGUE`, with the alert
that must catch it.  A source-spoofed BYE and genuine toll fraud are the
same wire-level observable; the engine attributes by whether the
after-close media comes from the BYE's claimed sender.
"""

from typing import Callable, Dict, Tuple

from ..vids.alerts import AttackType
from .base import Attack, EstablishedPair, attacker_host, find_established_pair
from .bye_teardown import ByeTeardownAttack
from .cancel_dos import CancelDosAttack
from .drdos import DrdosReflectionAttack
from .hijack import CallHijackAttack
from .invite_flood import InviteFloodAttack
from .media_spam import MediaSpamAttack
from .registration_hijack import RegistrationHijackAttack
from .rtp_flood import RtpFloodAttack
from .toll_fraud import TollFraudAttack

__all__ = [
    "Attack",
    "ByeTeardownAttack",
    "CATALOGUE",
    "CallHijackAttack",
    "CancelDosAttack",
    "DrdosReflectionAttack",
    "EstablishedPair",
    "InviteFloodAttack",
    "MediaSpamAttack",
    "RegistrationHijackAttack",
    "RtpFloodAttack",
    "TollFraudAttack",
    "attacker_host",
    "find_established_pair",
]

#: Every Section-3 attack: name -> (injector for a start time, the alert it
#: must raise).  ``repro attack-matrix``, ``repro trace --attack`` and the
#: detection tests read this one list.
CATALOGUE: Dict[str, Tuple[Callable[[float], Attack], AttackType]] = {
    # INVITE flooding (3.1, Fig. 4)
    "invite-flood": (lambda t: InviteFloodAttack(t, count=20),
                     AttackType.INVITE_FLOOD),
    # BYE DoS (3.1, Fig. 5): from the attacker's own address ...
    "bye": (lambda t: ByeTeardownAttack(t, spoof="none"), AttackType.BYE_DOS),
    # ... or spoofing the peer: caught by the after-close media, which the
    # attribution labels toll-fraud-consistent.
    "bye-spoof": (lambda t: ByeTeardownAttack(t, spoof="peer"),
                  AttackType.TOLL_FRAUD),
    "cancel": (CancelDosAttack, AttackType.CANCEL_DOS),             # 3.1
    "hijack": (CallHijackAttack, AttackType.CALL_HIJACK),           # 3.1
    "toll-fraud": (TollFraudAttack, AttackType.TOLL_FRAUD),         # 3.1
    "media-spam": (MediaSpamAttack, AttackType.MEDIA_SPAM),   # 3.2, Fig. 6
    "rtp-flood": (lambda t: RtpFloodAttack(t, mode="flood"),        # 3.2
                  AttackType.RTP_FLOOD),
    "codec-change": (lambda t: RtpFloodAttack(t, mode="codec"),     # 3.2
                     AttackType.CODEC_CHANGE),
    "drdos": (lambda t: DrdosReflectionAttack(t, count=20),         # 3.1
              AttackType.DRDOS_REFLECTION),
    # Registration hijacking (an extension beyond the paper's list).
    "registration-hijack": (RegistrationHijackAttack,
                            AttackType.REGISTRATION_HIJACK),
}
