"""SIP user agent: the UAC/UAS core driving calls end to end.

"Each UA is a combination of two entities, the user agent client (UAC) and
the user agent server (UAS).  The UA switches back and forth between being
an UAC and an UAS." (paper §2.1).  This module implements that core on top
of the transaction layer: registration, outgoing INVITE with SDP offer,
ringing/answer on the callee side, ACK, CANCEL, BYE, and re-INVITE, with
dialogs tracked per RFC 3261 §12.

The higher-level "phone" behaviour (when to ring, when to answer, RTP
streaming) lives in :mod:`repro.telephony.phone`; the hooks here are plain
callbacks so the UA stays a protocol engine.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, Union

from ..netsim.address import Endpoint
from ..netsim.node import Host
from .auth import DigestChallenge, DigestCredentials, build_authorization
from .constants import ACK, BYE, CANCEL, DEFAULT_SIP_PORT, INVITE, REGISTER
from .dialog import Dialog, DialogId, DialogState
from .headers import NameAddr, new_branch, new_call_id, new_tag
from .message import SipRequest, SipResponse
from .sdp import SDP_CONTENT_TYPE, SessionDescription
from .timers import DEFAULT_TIMERS, TimerTable
from .transaction import (
    PROCEEDING,
    InviteServerTransaction,
    ServerTransaction,
    TransactionManager,
)
from .transport import SipTransport
from .uri import SipUri

__all__ = ["CallState", "Call", "UserAgent"]


class CallState(enum.Enum):
    """Lifecycle of one call leg as the UA sees it."""

    INIT = "init"
    CALLING = "calling"          # UAC: INVITE sent
    INCOMING = "incoming"        # UAS: INVITE received
    RINGING = "ringing"          # 180 seen/sent
    ESTABLISHED = "established"  # 200 + ACK exchanged
    TERMINATED = "terminated"    # normal BYE completion
    CANCELLED = "cancelled"      # CANCEL / 487
    FAILED = "failed"            # non-2xx final or timeout


class Call:
    """One call leg as seen by this user agent (caller or callee side)."""

    def __init__(self, ua: "UserAgent", is_caller: bool, call_id: str):
        self.ua = ua
        self.is_caller = is_caller
        self.call_id = call_id
        self.state = CallState.INIT
        self.dialog: Optional[Dialog] = None
        self.local_sdp: Optional[SessionDescription] = None
        self.remote_sdp: Optional[SessionDescription] = None
        self.invite_request: Optional[SipRequest] = None
        self.server_transaction: Optional[InviteServerTransaction] = None
        self.created_at = ua.sim.now
        self.invite_sent_at: Optional[float] = None
        self.ringing_at: Optional[float] = None
        self.established_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        self.end_reason: Optional[str] = None
        # Application hooks (set by the phone layer).
        self.on_ringing: Optional[Callable[["Call"], None]] = None
        self.on_established: Optional[Callable[["Call"], None]] = None
        self.on_terminated: Optional[Callable[["Call", str], None]] = None

    @property
    def setup_delay(self) -> Optional[float]:
        """INVITE-sent to 180-received interval: the paper's call setup time."""
        if self.invite_sent_at is None or self.ringing_at is None:
            return None
        return self.ringing_at - self.invite_sent_at

    @property
    def active(self) -> bool:
        return self.state in (CallState.CALLING, CallState.INCOMING,
                              CallState.RINGING, CallState.ESTABLISHED)

    # -- caller-side actions -------------------------------------------------

    def hangup(self) -> None:
        """Terminate the call: BYE if established, CANCEL if still pending."""
        if self.state is CallState.ESTABLISHED:
            self.ua._send_bye(self)
        elif self.is_caller and self.state in (CallState.CALLING,
                                               CallState.RINGING):
            self.ua._send_cancel(self)

    # -- callee-side actions -------------------------------------------------

    def ring(self) -> None:
        """Send 180 Ringing (callee side)."""
        self.ua._uas_ring(self)

    def accept(self, sdp: Optional[SessionDescription] = None) -> None:
        """Answer with 200 OK (callee side)."""
        self.ua._uas_accept(self, sdp)

    def reject(self, status: int = 486) -> None:
        """Refuse the call with a final failure response (callee side)."""
        self.ua._uas_reject(self, status)

    # -- bookkeeping -----------------------------------------------------------

    def _finish(self, state: CallState, reason: str) -> None:
        if self.state in (CallState.TERMINATED, CallState.CANCELLED,
                          CallState.FAILED):
            return
        self.state = state
        self.ended_at = self.ua.sim.now
        self.end_reason = reason
        if self.dialog is not None:
            self.dialog.terminate()
        if self.on_terminated is not None:
            self.on_terminated(self, reason)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        role = "caller" if self.is_caller else "callee"
        return f"<Call {self.call_id} {role} {self.state.value}>"


class UserAgent:
    """A SIP user agent bound to one simulated host."""

    def __init__(
        self,
        host: Host,
        aor: Union[SipUri, str],
        outbound_proxy: Endpoint,
        port: int = DEFAULT_SIP_PORT,
        display_name: Optional[str] = None,
        timers: TimerTable = DEFAULT_TIMERS,
    ):
        self.host = host
        self.sim = host.sim
        self.aor = aor if isinstance(aor, SipUri) else SipUri.parse(aor)
        self.display_name = display_name
        self.outbound_proxy = outbound_proxy
        self.transport = SipTransport(host, port)
        self.manager = TransactionManager(
            self.transport,
            on_request=self._on_request,
            on_stray_response=self._on_stray_response,
            timers=timers,
        )
        self.transport.set_handler(self._dispatch)
        self.calls: Dict[str, Call] = {}         # call-id -> call
        self.dialogs: Dict[DialogId, Call] = {}
        self.registered = False
        #: Digest credentials used to answer 401 challenges (registrar auth).
        self.credentials: Optional[DigestCredentials] = None
        #: Application hook: invoked with the new Call on incoming INVITE.
        self.on_incoming_call: Optional[Callable[[Call], None]] = None

    @property
    def contact_uri(self) -> SipUri:
        return SipUri(self.aor.user, self.host.ip, self.transport.port)

    def _dispatch(self, message, source: Endpoint) -> None:
        if isinstance(message, SipRequest):
            self.manager.handle_request(message, source)
        else:
            self.manager.handle_response(message, source)

    # -- registration ------------------------------------------------------

    def register(self, expires: float = 3600.0,
                 on_done: Optional[Callable[[bool], None]] = None) -> None:
        """REGISTER the contact with the domain registrar (outbound proxy)."""
        request = SipRequest(REGISTER, SipUri(None, self.aor.host))
        self._stamp_request(request)
        request.set("To", str(NameAddr(self.aor)))
        request.set("From", str(NameAddr(self.aor).with_tag(new_tag())))
        request.set("Call-ID", new_call_id(self.host.ip))
        request.set("CSeq", f"1 {REGISTER}")
        request.set("Contact", str(NameAddr(self.contact_uri)))
        request.set("Expires", int(expires))

        def on_response(response: SipResponse) -> None:
            if response.status == 401 and self.credentials is not None:
                retry = self._answer_challenge(request, response)
                if retry is not None:
                    self.manager.send_request(retry, self.outbound_proxy,
                                              on_final, on_timeout)
                    return
            on_final(response)

        def on_final(response: SipResponse) -> None:
            self.registered = response.is_success
            if on_done is not None:
                on_done(response.is_success)

        def on_timeout() -> None:
            if on_done is not None:
                on_done(False)

        self.manager.send_request(request, self.outbound_proxy,
                                  on_response, on_timeout)

    def _answer_challenge(self, original: SipRequest,
                          response: SipResponse) -> Optional[SipRequest]:
        """Rebuild ``original`` with an Authorization answering a 401."""
        challenge_value = response.get("WWW-Authenticate")
        if challenge_value is None or self.credentials is None:
            return None
        try:
            challenge = DigestChallenge.parse(challenge_value)
        except Exception:
            return None
        retry = SipRequest(original.method, original.uri,
                           body=original.body)
        retry.headers = [(k, v) for k, v in original.headers
                         if k not in ("Via", "CSeq", "Authorization")]
        self._stamp_request(retry)        # fresh branch
        cseq = original.cseq
        retry.set("CSeq", f"{(cseq.number if cseq else 1) + 1} "
                          f"{original.method}")
        retry.set("Authorization", build_authorization(
            self.credentials, challenge, original.method,
            str(original.uri)))
        return retry

    # -- outgoing calls --------------------------------------------------------

    def invite(self, remote: Union[SipUri, str],
               sdp: SessionDescription) -> Call:
        """Start a call to ``remote`` with an SDP offer; returns the Call."""
        remote_uri = remote if isinstance(remote, SipUri) else SipUri.parse(remote)
        call_id = new_call_id(self.host.ip)
        call = Call(self, is_caller=True, call_id=call_id)
        call.local_sdp = sdp
        self.calls[call_id] = call

        request = SipRequest(INVITE, remote_uri, body=sdp.serialize())
        self._stamp_request(request)
        request.set("From", str(self._local_name_addr().with_tag(new_tag())))
        request.set("To", str(NameAddr(remote_uri)))
        request.set("Call-ID", call_id)
        request.set("CSeq", f"1 {INVITE}")
        request.set("Contact", str(NameAddr(self.contact_uri)))
        request.set("Content-Type", SDP_CONTENT_TYPE)
        call.invite_request = request
        call.state = CallState.CALLING
        call.invite_sent_at = self.sim.now

        self.manager.send_request(
            request,
            self.outbound_proxy,
            on_response=lambda response: self._uac_response(call, response),
            on_timeout=lambda: call._finish(CallState.FAILED, "invite-timeout"),
        )
        return call

    def _uac_response(self, call: Call, response: SipResponse) -> None:
        if response.is_provisional:
            if response.status == 180 and call.state is CallState.CALLING:
                call.state = CallState.RINGING
                call.ringing_at = self.sim.now
                if call.on_ringing is not None:
                    call.on_ringing(call)
            return
        if response.is_success:
            self._uac_established(call, response)
        elif response.status == 487:
            call._finish(CallState.CANCELLED, "cancelled")
        else:
            call._finish(CallState.FAILED, f"rejected-{response.status}")

    def _uac_established(self, call: Call, response: SipResponse) -> None:
        if call.invite_request is None:
            return
        dialog = Dialog.from_uac(call.invite_request, response,
                                 self.host.ip, self.transport.port)
        dialog.local_cseq = 1
        dialog.confirm()
        call.dialog = dialog
        self.dialogs[dialog.id] = call
        if response.body:
            call.remote_sdp = SessionDescription.parse(response.body)
        ack = dialog.create_ack(response)
        self.transport.send_message(ack, dialog.remote_endpoint)
        call.state = CallState.ESTABLISHED
        call.established_at = self.sim.now
        if call.on_established is not None:
            call.on_established(call)

    def _send_cancel(self, call: Call) -> None:
        """CANCEL a pending INVITE (RFC 3261 §9.1: mirror the INVITE's Via)."""
        invite = call.invite_request
        if invite is None:
            return
        cancel = SipRequest(CANCEL, invite.uri)
        cancel.set("Via", invite.get("Via"))
        cancel.set("Max-Forwards", 70)
        cancel.set("From", invite.get("From"))
        cancel.set("To", invite.get("To"))
        cancel.set("Call-ID", invite.call_id)
        cseq = invite.cseq
        cancel.set("CSeq", f"{cseq.number} {CANCEL}")
        self.manager.send_request(cancel, self.outbound_proxy,
                                  on_response=lambda response: None)

    def _send_bye(self, call: Call) -> None:
        dialog = call.dialog
        if dialog is None or dialog.state is not DialogState.CONFIRMED:
            return
        bye = dialog.create_request(BYE)

        def on_response(response: SipResponse) -> None:
            call._finish(CallState.TERMINATED, "local-bye")

        def on_timeout() -> None:
            call._finish(CallState.TERMINATED, "bye-timeout")

        self.manager.send_request(bye, dialog.remote_endpoint,
                                  on_response, on_timeout)

    # -- incoming requests ---------------------------------------------------

    def _on_request(self, request: SipRequest, source: Endpoint,
                    transaction: Optional[ServerTransaction]) -> None:
        method = request.method
        if method == INVITE:
            to_addr = request.to
            if to_addr is not None and to_addr.tag:
                self._uas_reinvite(request, transaction)
            else:
                self._uas_new_invite(request, transaction)
        elif method == ACK:
            self._uas_ack(request)
        elif method == BYE:
            self._uas_bye(request, transaction)
        elif method == CANCEL:
            self._uas_cancel(request, transaction)
        elif method == "OPTIONS":
            # Capability query / keepalive ping (RFC 3261 §11).
            if transaction is not None:
                response = request.create_response(200, to_tag=new_tag())
                response.set("Allow", "INVITE, ACK, BYE, CANCEL, OPTIONS")
                response.set("Accept", "application/sdp")
                transaction.send_response(response)
        else:
            if transaction is not None:
                transaction.send_response(request.create_response(501))

    def _uas_new_invite(self, request: SipRequest,
                        transaction: Optional[ServerTransaction]) -> None:
        if not isinstance(transaction, InviteServerTransaction):
            return
        call_id = request.call_id or new_call_id(self.host.ip)
        if call_id in self.calls and self.calls[call_id].active:
            # Retransmission already absorbed by the transaction layer;
            # a *different* INVITE reusing a live Call-ID is rejected.
            transaction.send_response(request.create_response(482))
            return
        call = Call(self, is_caller=False, call_id=call_id)
        call.invite_request = request
        call.server_transaction = transaction
        call.state = CallState.INCOMING
        self.calls[call_id] = call
        local_tag = new_tag()
        dialog = Dialog.from_uas(request, local_tag,
                                 self.host.ip, self.transport.port)
        call.dialog = dialog
        self.dialogs[dialog.id] = call
        if request.body:
            call.remote_sdp = SessionDescription.parse(request.body)
        transaction.on_ack = lambda ack: self._uas_established(call)
        if self.on_incoming_call is not None:
            self.on_incoming_call(call)
        else:
            # No application attached: behave like an unattended phone.
            transaction.send_response(
                request.create_response(480, to_tag=local_tag))
            call._finish(CallState.FAILED, "no-application")

    def _uas_ring(self, call: Call) -> None:
        transaction = call.server_transaction
        if transaction is None or call.invite_request is None or \
                call.dialog is None:
            return
        if call.state is not CallState.INCOMING:
            return
        response = call.invite_request.create_response(
            180, to_tag=call.dialog.local_addr.tag)
        response.set("Contact", str(NameAddr(self.contact_uri)))
        transaction.send_response(response)
        call.state = CallState.RINGING
        call.ringing_at = self.sim.now

    def _uas_accept(self, call: Call,
                    sdp: Optional[SessionDescription]) -> None:
        transaction = call.server_transaction
        if transaction is None or call.invite_request is None or \
                call.dialog is None:
            return
        if call.state not in (CallState.INCOMING, CallState.RINGING):
            return
        if sdp is not None:
            call.local_sdp = sdp
        body = call.local_sdp.serialize() if call.local_sdp else ""
        response = call.invite_request.create_response(
            200, to_tag=call.dialog.local_addr.tag, body=body)
        response.set("Contact", str(NameAddr(self.contact_uri)))
        if body:
            response.set("Content-Type", SDP_CONTENT_TYPE)
        transaction.send_response(response)
        # ESTABLISHED is entered when the ACK arrives (transaction on_ack).

    def _uas_reject(self, call: Call, status: int) -> None:
        transaction = call.server_transaction
        if transaction is None or call.invite_request is None:
            return
        tag = call.dialog.local_addr.tag if call.dialog else new_tag()
        transaction.send_response(
            call.invite_request.create_response(status, to_tag=tag))
        call._finish(CallState.FAILED, f"rejected-{status}")

    def _uas_established(self, call: Call) -> None:
        if call.state in (CallState.INCOMING, CallState.RINGING):
            if call.dialog is not None:
                call.dialog.confirm()
                call.dialog.local_cseq = 0
            call.state = CallState.ESTABLISHED
            call.established_at = self.sim.now
            if call.on_established is not None:
                call.on_established(call)

    def _uas_ack(self, request: SipRequest) -> None:
        """A 2xx ACK delivered to the TU.

        Per RFC 3261 §17.2.3 the ACK for a 2xx carries its own branch, so it
        never matches the INVITE server transaction — the TU correlates it
        via the dialog and must stop the 200 retransmissions itself.
        """
        call = self._find_dialog_call(request)
        if call is None:
            return
        transaction = call.server_transaction
        if transaction is not None and not transaction.terminated:
            # Quenches the 2xx retransmit timer and fires on_ack, which
            # marks the call established.
            transaction.receive_ack(request)
        else:
            self._uas_established(call)

    def _uas_bye(self, request: SipRequest,
                 transaction: Optional[ServerTransaction]) -> None:
        call = self._find_dialog_call(request)
        if call is None or call.dialog is None:
            if transaction is not None:
                transaction.send_response(request.create_response(481))
            return
        cseq = request.cseq
        if cseq is not None and not call.dialog.accepts_remote_cseq(cseq.number):
            if transaction is not None:
                transaction.send_response(request.create_response(500))
            return
        if transaction is not None:
            transaction.send_response(request.create_response(200))
        call._finish(CallState.TERMINATED, "remote-bye")

    def _uas_cancel(self, request: SipRequest,
                    transaction: Optional[ServerTransaction]) -> None:
        invite_transaction = self.manager.find_invite_server_transaction(request)
        if invite_transaction is None:
            if transaction is not None:
                transaction.send_response(request.create_response(481))
            return
        if transaction is not None:
            transaction.send_response(request.create_response(200))
        # A CANCEL has no effect once a final response was sent (RFC 3261
        # §9.2), whatever the call's state: a 200 may be awaiting its ACK.
        original = invite_transaction.request
        call = self.calls.get(original.call_id or "")
        if call is not None and invite_transaction.state == PROCEEDING and \
                call.state in (CallState.INCOMING, CallState.RINGING):
            tag = (call.dialog.local_addr.tag if call.dialog else new_tag())
            invite_transaction.send_response(
                original.create_response(487, to_tag=tag))
            call._finish(CallState.CANCELLED, "remote-cancel")

    def _uas_reinvite(self, request: SipRequest,
                      transaction: Optional[ServerTransaction]) -> None:
        call = self._find_dialog_call(request)
        if call is None or call.dialog is None or not isinstance(
                transaction, InviteServerTransaction):
            if transaction is not None:
                transaction.send_response(request.create_response(481))
            return
        cseq = request.cseq
        if cseq is not None and not call.dialog.accepts_remote_cseq(cseq.number):
            transaction.send_response(request.create_response(500))
            return
        # Accept the session update: answer with our current SDP.
        if request.body:
            call.remote_sdp = SessionDescription.parse(request.body)
        contact = request.contact
        if contact is not None:
            call.dialog.remote_target = contact.uri
        body = call.local_sdp.serialize() if call.local_sdp else ""
        response = request.create_response(200, body=body)
        response.set("Contact", str(NameAddr(self.contact_uri)))
        if body:
            response.set("Content-Type", SDP_CONTENT_TYPE)
        transaction.on_ack = lambda ack: None
        transaction.send_response(response)

    # -- dialog lookup ---------------------------------------------------------

    def _find_dialog_call(self, request: SipRequest) -> Optional[Call]:
        to_addr = request.to
        from_addr = request.from_
        if to_addr is None or from_addr is None or request.call_id is None:
            return None
        dialog_id = DialogId(request.call_id, to_addr.tag or "",
                             from_addr.tag or "")
        return self.dialogs.get(dialog_id)

    def _on_stray_response(self, response: SipResponse,
                           source: Endpoint) -> None:
        """Handle 200 retransmissions for INVITE after our ACK was lost."""
        cseq = response.cseq
        if cseq is None or cseq.method != INVITE or not response.is_success:
            return
        to_addr = response.to
        from_addr = response.from_
        if to_addr is None or from_addr is None or response.call_id is None:
            return
        dialog_id = DialogId(response.call_id, from_addr.tag or "",
                             to_addr.tag or "")
        call = self.dialogs.get(dialog_id)
        if call is not None and call.dialog is not None and call.is_caller:
            ack = call.dialog.create_ack(response)
            self.transport.send_message(ack, call.dialog.remote_endpoint)

    # -- helpers -------------------------------------------------------------

    def _local_name_addr(self) -> NameAddr:
        return NameAddr(self.aor, self.display_name)

    def _stamp_request(self, request: SipRequest) -> None:
        request.set(
            "Via",
            f"SIP/2.0/UDP {self.host.ip}:{self.transport.port}"
            f";branch={new_branch()}",
        )
        request.set("Max-Forwards", 70)
