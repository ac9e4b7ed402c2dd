"""Synchronization-message vocabulary between the SIP and RTP machines.

The paper writes these as ``c!δ_SIP->RTP``: internal events carried over the
reliable FIFO channels of the per-call communicating-EFSM system.  This
module pins down the machine names, channel ids, and δ event names so the
two machine builders and the tests agree on the protocol between them.
"""

from __future__ import annotations

from ..efsm.channels import channel_name

__all__ = [
    "SIP_MACHINE",
    "RTP_MACHINE",
    "SIP_TO_RTP",
    "DELTA_SESSION_OFFER",
    "DELTA_SESSION_ANSWER",
    "DELTA_BYE",
    "DELTA_CANCELLED",
    "MEDIA_GLOBALS",
]

#: Machine names inside each per-call EFSM system.
SIP_MACHINE = "sip"
RTP_MACHINE = "rtp"

#: The one channel id (the paper's queue_12): the RTP machine sends no δ.
SIP_TO_RTP = channel_name(SIP_MACHINE, RTP_MACHINE)

#: δ events sent from the SIP machine to the RTP machine.
DELTA_SESSION_OFFER = "delta_session_offer"    # INVITE carried an SDP offer
DELTA_SESSION_ANSWER = "delta_session_answer"  # 200 OK carried an SDP answer
DELTA_BYE = "delta_bye"                        # call teardown began
DELTA_CANCELLED = "delta_cancelled"            # call setup abandoned

#: The shared (``v.g_*``) variables of a call and their defaults: the media
#: description and BYE source the SIP machine publishes and the RTP
#: machine's guards read.  Both machine builders declare exactly this
#: mapping.
MEDIA_GLOBALS = dict(
    g_offer_addr="",
    g_offer_port=0,
    g_offer_pts=(),
    g_answer_addr="",
    g_answer_port=0,
    g_answer_pts=(),
    g_ptime_ms=20,
    g_bye_src_ip="",
    g_bye_src_port=0,
)
