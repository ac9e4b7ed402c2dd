"""SIP user agent: the UAC/UAS core driving calls end to end.

"Each UA is a combination of two entities, the user agent client (UAC) and
the user agent server (UAS).  The UA switches back and forth between being
an UAC and an UAS." (paper §2.1).  This module implements that core on top
of the transaction layer: registration, outgoing INVITE with SDP offer,
ringing/answer on the callee side, ACK, CANCEL, BYE, and re-INVITE, with
dialogs tracked per RFC 3261 §12.

A call leg — one call as one side sees it — is a Definition-1 EFSM,
:data:`CALL_LEG`, run like the transactions below it by their
:class:`~repro.sip.transaction.Runner`.  What is not call state stays in
Python: dialog lookup, the CSeq check, the 481 / 482 / 500 / 501 replies,
re-INVITE, OPTIONS and REGISTER.  docs/STATE_MACHINES.md ("The
simulator's call leg") has its table.

The higher-level "phone" behaviour (when to ring, when to answer, RTP
streaming) lives in :mod:`repro.telephony.phone`; the hooks here are plain
callbacks so the UA stays a protocol engine.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from ..efsm.events import Event
from ..efsm.guards import helper, truthy, v, write, x
from ..efsm.machine import Efsm, EfsmInstance, Output
from ..netsim.address import Endpoint
from ..netsim.node import Host
from .auth import DigestChallenge, DigestCredentials, build_authorization
from .constants import ACK, BYE, CANCEL, DEFAULT_SIP_PORT, INVITE, REGISTER
from .dialog import Dialog, DialogId
from .headers import NameAddr, new_branch, new_call_id, new_tag
from .message import SipRequest, SipResponse
from .sdp import SDP_CONTENT_TYPE, SessionDescription
from .timers import DEFAULT_TIMERS, TimerTable
from .transaction import (
    FAILURE,
    PROCEEDING,
    SUCCESS,
    TERMINATED,
    TU,
    WIRE,
    InviteServerTransaction,
    Runner,
    ServerTransaction,
    TransactionManager,
)
from .transport import SipTransport
from .uri import SipUri

__all__ = ["CALL_LEG", "Call", "UserAgent", "cancel_for"]


# ---- the call leg (Definition 1, as data) -----------------------------------

CALLING, INCOMING, RINGING, ESTABLISHED = (
    "calling", "incoming", "ringing", "established")
CANCELLED, FAILED = "cancelled", "failed"

_STATUS = x("status")


def _rejected(status: int) -> str:
    return f"rejected-{status}"


def _reply(status: Any) -> Output:
    """Answer the INVITE with ``status`` on its server transaction."""
    return Output(WIRE, "reply", {"status": status})


def _ended(reason: Any) -> Output:
    """The ``on_terminated`` callback, with why the call ended."""
    return Output(TU, "ended", {"reason": reason})


def _call_leg() -> Efsm:
    """One call leg, either role: ``v.caller`` is written when the caller
    dials, and only the caller CANCELs on hang-up."""
    m = Efsm("call-leg", "init").declare(caller=False).declare_channel(
        WIRE, TU)
    for state in (CALLING, INCOMING, RINGING, ESTABLISHED):
        m.add_state(state)
    for state in (TERMINATED, CANCELLED, FAILED):
        m.add_state(state, final=True)
    # Caller: the INVITE's responses and Timer B.
    m.add_transition("init", "dial", CALLING, action=write("caller", True),
                     outputs=[Output(WIRE, INVITE)])
    m.add_transition(CALLING, "response", RINGING, _STATUS == 180,
                     outputs=[Output(TU, "ringing")])
    m.add_transition(CALLING, "timeout", FAILED,
                     outputs=[_ended("invite-timeout")])
    for state in (CALLING, RINGING):
        m.add_transition(state, "response", ESTABLISHED, SUCCESS, outputs=[
            Output(WIRE, ACK), Output(TU, "established")])
        m.add_transition(state, "response", CANCELLED, _STATUS == 487,
                         outputs=[_ended("cancelled")])
        m.add_transition(state, "response", FAILED,
                         FAILURE & (_STATUS != 487),
                         outputs=[_ended(helper(_rejected, _STATUS))])
        m.add_transition(state, "hangup", state, truthy(v("caller")),
                         outputs=[Output(WIRE, CANCEL)])
    # Callee: the phone answers; a CANCEL counts only while the INVITE
    # transaction has sent no final response (RFC 3261 §9.2), so one that
    # crosses the 200 leaves the call to its ACK.
    attended = truthy(x("attended"))
    m.add_transition("init", INVITE, INCOMING, attended,
                     outputs=[Output(TU, "incoming")])
    m.add_transition("init", INVITE, FAILED, ~attended,
                     outputs=[_reply(480), _ended("no-application")])
    m.add_transition(INCOMING, "ring", RINGING, outputs=[_reply(180)])
    for state in (INCOMING, RINGING):
        m.add_transition(state, "accept", state,
                         outputs=[Output(WIRE, "answer")])
        m.add_transition(state, "reject", FAILED, outputs=[
            _reply(_STATUS), _ended(helper(_rejected, _STATUS))])
        m.add_transition(state, CANCEL, CANCELLED,
                         x("transaction") == PROCEEDING,
                         outputs=[_reply(487), _ended("remote-cancel")])
        m.add_transition(state, ACK, ESTABLISHED,
                         outputs=[Output(TU, "established")])
        m.add_transition(state, BYE, TERMINATED,
                         outputs=[_ended("remote-bye")])
    # Either side, in the dialog.
    m.add_transition(ESTABLISHED, "hangup", ESTABLISHED,
                     outputs=[Output(WIRE, BYE)])
    m.add_transition(ESTABLISHED, "response", TERMINATED,
                     outputs=[_ended("local-bye")])
    m.add_transition(ESTABLISHED, "timeout", TERMINATED,
                     outputs=[_ended("bye-timeout")])
    m.add_transition(ESTABLISHED, BYE, TERMINATED,
                     outputs=[_ended("remote-bye")])
    return m


#: The call leg's definition; it compiles when the first call starts.
CALL_LEG = _call_leg()

_DIAL, _RING, _HANGUP, _TIMEOUT = map(Event, ("dial", "ring", "hangup",
                                             "timeout"))
_ACK, _BYE = Event(ACK), Event(BYE)


def cancel_for(invite: SipRequest) -> SipRequest:
    """The CANCEL of ``invite`` (RFC 3261 §9.1: mirror its Via)."""
    cancel = SipRequest(CANCEL, invite.uri)
    cancel.set("Via", invite.get("Via"))
    cancel.set("Max-Forwards", 70)
    cancel.set("From", invite.get("From"))
    cancel.set("To", invite.get("To"))
    cancel.set("Call-ID", invite.call_id)
    cancel.set("CSeq", f"{invite.cseq.number} {CANCEL}")
    return cancel


class Call(Runner):
    """One call leg as seen by this user agent (caller or callee side)."""

    def __init__(self, ua: "UserAgent", call_id: str,
                 invite_request: SipRequest):
        self.ua = ua
        self.call_id = call_id
        self.machine = EfsmInstance(CALL_LEG)
        self.invite_request = invite_request
        self.dialog: Optional[Dialog] = None
        self.local_sdp: Optional[SessionDescription] = None
        self.remote_sdp: Optional[SessionDescription] = None
        self.server_transaction: Optional[InviteServerTransaction] = None
        self.invite_sent_at: Optional[float] = None
        self.ringing_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        self.end_reason: Optional[str] = None
        # Application hooks (set by the phone layer).
        self.on_ringing: Optional[Callable[["Call"], None]] = None
        self.on_established: Optional[Callable[["Call"], None]] = None
        self.on_terminated: Optional[Callable[["Call", str], None]] = None

    @property
    def state(self) -> str:
        """The call leg's state: ``init``, ``calling``, ``incoming``,
        ``ringing``, ``established``, or final ``terminated``,
        ``cancelled``, ``failed``."""
        return self.machine.state

    @property
    def is_caller(self) -> bool:
        return self.machine.variables.local["caller"]

    @property
    def setup_delay(self) -> Optional[float]:
        """INVITE-sent to 180-received interval: the paper's call setup time."""
        if self.invite_sent_at is None or self.ringing_at is None:
            return None
        return self.ringing_at - self.invite_sent_at

    # -- the phone's actions -------------------------------------------------

    def hangup(self) -> None:
        """Terminate the call: BYE if established, CANCEL if still pending."""
        self._handle(_HANGUP)

    def ring(self) -> None:
        """Send 180 Ringing (callee side)."""
        self._handle(_RING)

    def accept(self, sdp: Optional[SessionDescription] = None) -> None:
        """Answer with 200 OK (callee side); established on the ACK."""
        self._handle(Event("accept", {"sdp": sdp}))

    def reject(self, status: int = 486) -> None:
        """Refuse the call with a final failure response (callee side)."""
        self._handle(Event("reject", {"status": status}))

    # -- what each output of the call leg does -------------------------------

    def _output(self, output: Event) -> None:
        name, ua = output.name, self.ua
        if name == "reply":
            self._reply(output["status"])
        elif name == "answer":
            if output["sdp"] is not None:
                self.local_sdp = output["sdp"]
            self._reply(200, self.local_sdp.serialize()
                        if self.local_sdp else "")
        elif name == "ended":
            self.ended_at = ua.sim.now
            self.end_reason = output["reason"]
            if self.on_terminated is not None:
                self.on_terminated(self, self.end_reason)
        elif name == "established":
            if self.on_established is not None:
                self.on_established(self)
        elif name == "ringing":
            self.ringing_at = ua.sim.now
            if self.on_ringing is not None:
                self.on_ringing(self)
        elif name == "incoming":
            ua.on_incoming_call(self)
        elif name == INVITE:
            self.invite_sent_at = ua.sim.now
            ua.manager.send_request(self.invite_request, ua.outbound_proxy,
                                    self._handle_response,
                                    lambda: self._handle(_TIMEOUT))
        elif name == ACK:
            self._ack(output["message"])
        elif name == BYE:
            dialog = self.dialog
            bye = dialog.create_request(BYE, new_branch(ua.sim))
            ua.manager.send_request(bye, dialog.remote_endpoint,
                                    self._handle_response,
                                    lambda: self._handle(_TIMEOUT))
        else:
            ua.manager.send_request(cancel_for(self.invite_request),
                                    ua.outbound_proxy,
                                    on_response=lambda response: None)

    def _reply(self, status: int, body: str = "") -> None:
        """Answer the INVITE on its server transaction."""
        self.server_transaction.send_response(self.ua._response(
            self.invite_request, status, self.dialog.local_addr.tag, body))

    def _ack(self, response: SipResponse) -> None:
        """The caller's dialog from the 2xx, and its ACK (RFC 3261 §13.2.2.4)."""
        ua = self.ua
        dialog = self.dialog = Dialog.from_uac(
            self.invite_request, response, ua.host.ip, ua.transport.port)
        ua.dialogs[dialog.id] = self
        if response.body:
            self.remote_sdp = SessionDescription.parse(response.body)
        ua.transport.send_message(
            dialog.create_ack(response, new_branch(ua.sim)),
            dialog.remote_endpoint)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        role = "caller" if self.is_caller else "callee"
        return f"<Call {self.call_id} {role} {self.state}>"


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
        request.set("From",
                    str(NameAddr(self.aor).with_tag(new_tag(self.sim))))
        request.set("Call-ID", new_call_id(self.sim, self.host.ip))
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
        call_id = new_call_id(self.sim, self.host.ip)
        request = SipRequest(INVITE, remote_uri, body=sdp.serialize())
        self._stamp_request(request)
        request.set("From",
                    str(self._local_name_addr().with_tag(new_tag(self.sim))))
        request.set("To", str(NameAddr(remote_uri)))
        request.set("Call-ID", call_id)
        request.set("CSeq", f"1 {INVITE}")
        request.set("Contact", str(NameAddr(self.contact_uri)))
        request.set("Content-Type", SDP_CONTENT_TYPE)
        call = self.calls[call_id] = Call(self, call_id, request)
        call.local_sdp = sdp
        call._handle(_DIAL)
        return call

    # -- incoming requests ---------------------------------------------------

    def _on_request(self, request: SipRequest, source: Endpoint,
                    transaction: Optional[ServerTransaction]) -> None:
        """A new request; ``transaction`` is None only for a 2xx ACK."""
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
            response = request.create_response(200, to_tag=new_tag(self.sim))
            response.set("Allow", "INVITE, ACK, BYE, CANCEL, OPTIONS")
            response.set("Accept", "application/sdp")
            transaction.send_response(response)
        else:
            transaction.send_response(request.create_response(501))

    def _uas_new_invite(self, request: SipRequest,
                        transaction: InviteServerTransaction) -> None:
        call_id = request.call_id or new_call_id(self.sim, self.host.ip)
        live = self.calls.get(call_id)
        if live is not None and live.ended_at is None:
            # Retransmission already absorbed by the transaction layer;
            # a *different* INVITE reusing a live Call-ID is rejected.
            transaction.send_response(request.create_response(482))
            return
        call = self.calls[call_id] = Call(self, call_id, request)
        call.server_transaction = transaction
        dialog = call.dialog = Dialog.from_uas(
            request, new_tag(self.sim), self.host.ip, self.transport.port)
        self.dialogs[dialog.id] = call
        if request.body:
            call.remote_sdp = SessionDescription.parse(request.body)
        transaction.on_ack = lambda ack: call._handle(_ACK)
        # No application attached: the leg answers like an unattended phone.
        call._handle(Event(INVITE, {
            "attended": self.on_incoming_call is not None}))

    def _uas_ack(self, request: SipRequest) -> None:
        """A 2xx ACK delivered to the TU.

        Per RFC 3261 §17.2.3 the ACK for a 2xx carries its own branch, so it
        never matches the INVITE server transaction — the TU correlates it
        via the dialog and must stop the 200 retransmissions itself.
        """
        call = self._dialog_call(request, request.to, request.from_)
        if call is None:
            return
        transaction = call.server_transaction
        if transaction is not None and not transaction.terminated:
            # Quenches the 2xx retransmit timer and fires on_ack, which
            # hands the ACK to the call leg.
            transaction.receive_ack(request)
        else:
            call._handle(_ACK)

    def _uas_bye(self, request: SipRequest,
                 transaction: ServerTransaction) -> None:
        call = self._in_dialog(request, transaction)
        if call is not None:
            # The dialog answers a BYE whatever the call's state.
            transaction.send_response(request.create_response(200))
            call._handle(_BYE)

    def _uas_cancel(self, request: SipRequest,
                    transaction: ServerTransaction) -> None:
        invite_transaction = self.manager.find_invite_server_transaction(request)
        if invite_transaction is None:
            transaction.send_response(request.create_response(481))
            return
        transaction.send_response(request.create_response(200))
        call = self.calls.get(invite_transaction.request.call_id or "")
        if call is not None:
            call._handle(Event(CANCEL, {
                "transaction": invite_transaction.state}))

    def _uas_reinvite(self, request: SipRequest,
                      transaction: InviteServerTransaction) -> None:
        call = self._in_dialog(request, transaction)
        if call is None:
            return
        # Accept the session update: answer with our current SDP.
        if request.body:
            call.remote_sdp = SessionDescription.parse(request.body)
        contact = request.contact
        if contact is not None:
            call.dialog.remote_target = contact.uri
        transaction.on_ack = lambda ack: None
        transaction.send_response(self._response(
            request, 200, body=call.local_sdp.serialize()
            if call.local_sdp else ""))

    # -- dialog lookup ---------------------------------------------------------

    def _dialog_call(self, message, local: Optional[NameAddr],
                     remote: Optional[NameAddr]) -> Optional[Call]:
        """The call whose dialog has ``message``'s Call-ID and these tags."""
        if local is None or remote is None or message.call_id is None:
            return None
        return self.dialogs.get(DialogId(message.call_id, local.tag or "",
                                         remote.tag or ""))

    def _in_dialog(self, request: SipRequest,
                   transaction: ServerTransaction) -> Optional[Call]:
        """The call an in-dialog request belongs to; None after answering
        481 (no such dialog) or 500 (a CSeq that does not increase)."""
        call = self._dialog_call(request, request.to, request.from_)
        cseq = request.cseq
        if call is None:
            transaction.send_response(request.create_response(481))
        elif cseq is not None and not call.dialog.accepts_remote_cseq(
                cseq.number):
            transaction.send_response(request.create_response(500))
        else:
            return call
        return None

    def _on_stray_response(self, response: SipResponse,
                           source: Endpoint) -> None:
        """Handle 200 retransmissions for INVITE after our ACK was lost."""
        cseq = response.cseq
        if cseq is None or cseq.method != INVITE or not response.is_success:
            return
        call = self._dialog_call(response, response.from_, response.to)
        if call is not None and call.is_caller:
            ack = call.dialog.create_ack(response, new_branch(self.sim))
            self.transport.send_message(ack, call.dialog.remote_endpoint)

    # -- helpers -------------------------------------------------------------

    def _response(self, request: SipRequest, status: int,
                  to_tag: Optional[str] = None, body: str = "") -> SipResponse:
        """A response to an INVITE: a 1xx or 2xx carries our Contact, and a
        body is SDP."""
        response = request.create_response(status, to_tag=to_tag, body=body)
        if status < 300:
            response.set("Contact", str(NameAddr(self.contact_uri)))
        if body:
            response.set("Content-Type", SDP_CONTENT_TYPE)
        return response

    def _local_name_addr(self) -> NameAddr:
        return NameAddr(self.aor, self.display_name)

    def _stamp_request(self, request: SipRequest) -> None:
        request.set(
            "Via",
            f"SIP/2.0/UDP {self.host.ip}:{self.transport.port}"
            f";branch={new_branch(self.sim)}",
        )
        request.set("Max-Forwards", 70)
