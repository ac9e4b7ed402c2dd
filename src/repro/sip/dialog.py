"""SIP dialog layer (RFC 3261 §12).

A dialog is the peer-to-peer call relationship identified by
(Call-ID, local tag, remote tag).  In the paper's enterprise deployment the
proxies do not record-route, so in-dialog requests (ACK, BYE, re-INVITE)
flow directly between the user agents — exactly the end-to-end signaling
path vids observes at the perimeter.

A dialog here is identity and sequencing only: the identifiers, the
remote target and the CSeq counters.  Whether the call it carries is early,
confirmed or over is the call leg's state
(:data:`repro.sip.useragent.CALL_LEG`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..netsim.address import Endpoint
from .constants import ACK
from .errors import SipProtocolError
from .headers import NameAddr, new_branch
from .message import SipRequest, SipResponse
from .uri import SipUri

__all__ = ["DialogId", "Dialog"]


class DialogId(NamedTuple):
    """The triple that names a dialog."""

    call_id: str
    local_tag: str
    remote_tag: str


@dataclass
class Dialog:
    """One side's view of a dialog."""

    call_id: str
    local_addr: NameAddr          # our From/To identity including tag
    remote_addr: NameAddr
    remote_target: SipUri         # remote Contact URI: where requests go
    local_cseq: int
    remote_cseq: int
    is_uac: bool
    via_host: str = ""
    via_port: int = 5060

    @property
    def id(self) -> DialogId:
        return DialogId(self.call_id, self.local_addr.tag or "",
                        self.remote_addr.tag or "")

    @property
    def remote_endpoint(self) -> Endpoint:
        """Transport destination for in-dialog requests."""
        return Endpoint(self.remote_target.host, self.remote_target.effective_port)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_uac(cls, invite: SipRequest, response: SipResponse,
                 via_host: str, via_port: int) -> "Dialog":
        """Build the caller-side dialog from the INVITE and a 1xx/2xx with tag."""
        contact = response.contact
        remote_target = contact.uri if contact else SipUri.parse(str(invite.uri))
        from_addr = invite.from_
        to_addr = response.to
        if from_addr is None or to_addr is None or invite.call_id is None:
            raise SipProtocolError("INVITE/response lack dialog headers")
        cseq = invite.cseq
        return cls(
            call_id=invite.call_id,
            local_addr=from_addr,
            remote_addr=to_addr,
            remote_target=remote_target,
            local_cseq=cseq.number if cseq else 1,
            remote_cseq=0,
            is_uac=True,
            via_host=via_host,
            via_port=via_port,
        )

    @classmethod
    def from_uas(cls, invite: SipRequest, local_tag: str,
                 via_host: str, via_port: int) -> "Dialog":
        """Build the callee-side dialog from a received INVITE."""
        from_addr = invite.from_
        to_addr = invite.to
        if from_addr is None or to_addr is None or invite.call_id is None:
            raise SipProtocolError("INVITE lacks dialog headers")
        contact = invite.contact
        remote_target = contact.uri if contact else from_addr.uri
        cseq = invite.cseq
        return cls(
            call_id=invite.call_id,
            local_addr=to_addr.with_tag(local_tag),
            remote_addr=from_addr,
            remote_target=remote_target,
            local_cseq=0,
            remote_cseq=cseq.number if cseq else 1,
            is_uac=False,
            via_host=via_host,
            via_port=via_port,
        )

    # -- request building ---------------------------------------------------

    def _request(self, method: str, cseq: int) -> SipRequest:
        request = SipRequest(method, self.remote_target)
        request.set(
            "Via",
            f"SIP/2.0/UDP {self.via_host}:{self.via_port};branch={new_branch()}",
        )
        request.set("Max-Forwards", 70)
        request.set("From", str(self.local_addr))
        request.set("To", str(self.remote_addr))
        request.set("Call-ID", self.call_id)
        request.set("CSeq", f"{cseq} {method}")
        return request

    def create_request(self, method: str, body: str = "",
                       content_type: Optional[str] = None) -> SipRequest:
        """Build an in-dialog request (BYE, re-INVITE, ...)."""
        if method != ACK:
            self.local_cseq += 1
        request = self._request(method, self.local_cseq)
        request.set(
            "Contact",
            str(NameAddr(SipUri(self.local_addr.uri.user, self.via_host,
                                self.via_port))),
        )
        if body:
            request.body = body
            if content_type:
                request.set("Content-Type", content_type)
        return request

    def create_ack(self, response: SipResponse) -> SipRequest:
        """Build the ACK for a 2xx response (RFC 3261 §13.2.2.4).

        The ACK CSeq number equals the INVITE's, with method ACK.
        """
        cseq = response.cseq
        ack = self._request(ACK, cseq.number if cseq else self.local_cseq)
        ack.set("To", response.get("To") or str(self.remote_addr))
        return ack

    def accepts_remote_cseq(self, number: int) -> bool:
        """RFC 3261 §12.2.2: in-dialog request CSeq must increase."""
        if number <= self.remote_cseq:
            return False
        self.remote_cseq = number
        return True
