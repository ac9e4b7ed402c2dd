"""SIP protocol stack (RFC 3261 subset) for the vids reproduction.

Layers, bottom up:

- wire format: :func:`parse_message`, :class:`SipRequest`, :class:`SipResponse`,
  :class:`SipUri`, :class:`Via`, :class:`NameAddr`, :class:`CSeq`,
  :class:`SessionDescription` (SDP bodies);
- transport: :class:`SipTransport` over simulated UDP;
- transactions: :class:`TransactionManager` and the four RFC 3261 §17
  machines, driven by :class:`TimerTable` timers;
- dialogs: :class:`Dialog`;
- elements: :class:`UserAgent` (with :class:`Call`), :class:`ProxyServer`,
  :class:`LocationService`, :class:`DomainDirectory`.
"""

from .auth import (
    Authenticator,
    DigestChallenge,
    DigestCredentials,
    build_authorization,
    compute_digest_response,
    parse_auth_params,
)
from .constants import (
    ACK,
    BYE,
    CANCEL,
    DEFAULT_SIP_PORT,
    INVITE,
    METHODS,
    OPTIONS,
    REGISTER,
    SIP_VERSION,
    reason_phrase,
)
from .dialog import Dialog, DialogId
from .dns import DomainDirectory
from .errors import SipError, SipParseError, SipProtocolError
from .headers import (
    CSeq,
    NameAddr,
    Via,
    canonical_header_name,
    new_branch,
    new_call_id,
    new_tag,
)
from .message import (
    SipMessage,
    SipRequest,
    SipResponse,
    is_sip_payload,
    parse_message,
)
from .proxy import ProxyServer
from .registrar import Binding, LocationService, process_register
from .sdp import SDP_CONTENT_TYPE, MediaDescription, SessionDescription
from .timers import DEFAULT_TIMERS, TimerTable
from .transaction import (
    ClientTransaction,
    InviteClientTransaction,
    InviteServerTransaction,
    NonInviteClientTransaction,
    NonInviteServerTransaction,
    ServerTransaction,
    TransactionManager,
)
from .transport import SipTransport
from .uri import SipUri
from .useragent import CALL_LEG, Call, UserAgent

__all__ = [
    "ACK",
    "Authenticator",
    "BYE",
    "Binding",
    "DigestChallenge",
    "DigestCredentials",
    "build_authorization",
    "compute_digest_response",
    "parse_auth_params",
    "CANCEL",
    "CSeq",
    "Call",
    "CALL_LEG",
    "ClientTransaction",
    "DEFAULT_SIP_PORT",
    "DEFAULT_TIMERS",
    "Dialog",
    "DialogId",
    "DomainDirectory",
    "INVITE",
    "InviteClientTransaction",
    "InviteServerTransaction",
    "LocationService",
    "METHODS",
    "MediaDescription",
    "NameAddr",
    "NonInviteClientTransaction",
    "NonInviteServerTransaction",
    "OPTIONS",
    "ProxyServer",
    "REGISTER",
    "SDP_CONTENT_TYPE",
    "SIP_VERSION",
    "ServerTransaction",
    "SessionDescription",
    "SipError",
    "SipMessage",
    "SipParseError",
    "SipProtocolError",
    "SipRequest",
    "SipResponse",
    "SipTransport",
    "SipUri",
    "TimerTable",
    "TransactionManager",
    "UserAgent",
    "Via",
    "canonical_header_name",
    "is_sip_payload",
    "new_branch",
    "new_call_id",
    "new_tag",
    "parse_message",
    "process_register",
    "reason_phrase",
]
