"""The per-call SIP protocol state machine (vids specification model).

This is the machine of the paper's Figure 2(a) extended over the whole call
lifecycle: INVITE receipt, provisional/final responses, ACK, CANCEL, BYE,
and teardown, with attack-annotated transitions for third-party CANCEL,
third-party BYE, and in-dialog hijack INVITEs.

On the INVITE transition the machine stores the header-field values the
paper names — Call-ID, the Via branch, From/To tags — in local variables
(``v.l_*``) and writes the SDP media information (address, port, encoding
schemes) into the **global** variables (``v.g_*``) shared with the RTP
machine, then emits a ``δ_SIP→RTP`` synchronization event on the
SIP→RTP channel.  Likewise the 200 OK answer publishes the callee's media
description, and BYE emits the δ that arms the Figure-5 in-flight timer in
the RTP machine.

Event vocabulary (data events, channel ``None``):

- ``INVITE`` / ``ACK`` / ``BYE`` / ``CANCEL`` with the request's header
  fields in ``x``;
- ``RESPONSE`` with ``x["status"]`` and ``x["cseq_method"]``.

Participant identification: because vids sits at the perimeter (between the
edge router and the hub), the initial INVITE arrives from the remote
*proxy*, while in-dialog requests arrive end-to-end from the remote *user
agent*.  The machine therefore accumulates a participant set from the Via
chain, Contact headers, and SDP connection addresses, and judges BYE/CANCEL
/re-INVITE legitimacy against that set — a third party injecting requests
from its own address falls outside it.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..efsm.guards import Statement, Term, helper, truthy, v, when, write, x
from ..efsm.machine import Efsm, Output
from .config import DEFAULT_CONFIG, VidsConfig
from .sync import (
    DELTA_BYE,
    DELTA_CANCELLED,
    DELTA_SESSION_ANSWER,
    DELTA_SESSION_OFFER,
    MEDIA_GLOBALS,
    SIP_MACHINE,
    SIP_TO_RTP,
)

__all__ = ["build_sip_machine", "SIP_STATES", "SIP_ATTACK_STATES"]

# State names, kept close to the paper's figures.
INIT = "INIT"
INVITE_RCVD = "INVITE_Rcvd"
PROCEEDING = "Proceeding"
ANSWERED = "Answered"
ESTABLISHED = "Call_Established"
TEARDOWN = "Teardown_Begins"
CLOSED = "Closed"
CANCELLING = "Cancelling"
CANCELLED = "Cancelled"
FAILED = "Failed"
ATTACK_CANCEL = "ATTACK_Cancel_DoS"
ATTACK_BYE = "ATTACK_Bye_DoS"
ATTACK_HIJACK = "ATTACK_Hijack"

SIP_STATES = (INIT, INVITE_RCVD, PROCEEDING, ANSWERED, ESTABLISHED, TEARDOWN,
              CLOSED, CANCELLING, CANCELLED, FAILED)
SIP_ATTACK_STATES = (ATTACK_CANCEL, ATTACK_BYE, ATTACK_HIJACK)

_ALL_EVENTS = ("INVITE", "ACK", "BYE", "CANCEL", "RESPONSE")


# ---- guards (Definition 1's P_t, as data: repro.efsm.guards) -----------------
# ``sip_event_from_message`` supplies ``status`` as an int and ``cseq_method``
# / ``branch`` / ``src_ip`` as strings, so the terms are compared as they are.

_STATUS, _CSEQ_METHOD = x("status", 0), x("cseq_method", "")
_INVITE_CSEQ = _CSEQ_METHOD == "INVITE"
_IS_2XX = (_STATUS >= 200) & (_STATUS < 300)

IS_1XX_INVITE = (_STATUS >= 100) & (_STATUS < 200) & _INVITE_CSEQ
IS_2XX_INVITE = _IS_2XX & _INVITE_CSEQ
IS_487_INVITE = (_STATUS == 487) & _INVITE_CSEQ
#: Every final failure, 487 included.
IS_FAILED_INVITE = (_STATUS >= 300) & _INVITE_CSEQ
IS_2XX_BYE = _IS_2XX & (_CSEQ_METHOD == "BYE")
#: An initial INVITE carries no To tag.
IS_INITIAL_INVITE = ~truthy(x("to_tag", None))
SAME_INVITE_BRANCH = x("branch", "") == v("invite_branch", None)
#: A genuine in-dialog request (CANCEL, re-INVITE, BYE) retraces the
#: dialog's path, so it arrives from an address already in the participant
#: set (the upstream proxy or a user agent).  A third party sending from its
#: own address fails this even if it sniffed the transaction branch; a party
#: spoofing a participant source is indistinguishable without
#: authentication (the limitation the paper's Section 3.1 acknowledges).
SRC_IS_PARTICIPANT = x("src_ip", "").in_(v("participants", ()))


def add_participants(current: Tuple[str, ...], *hosts: Any
                     ) -> Tuple[str, ...]:
    """``current`` plus every non-empty host (each entry of a Via list), as
    a sorted tuple."""
    return tuple(sorted({*current, *(
        h for host in hosts if host
        for h in (host if isinstance(host, (list, tuple)) else (str(host),))
        if h)}))


# ---- actions (Definition 1's A_t, as data) ----------------------------------
# Writes keep the str() / int() / tuple() normalisation of the values they
# store, so a state value has one type whatever the event carried.

_SDP_ADDR, _PTIME = x("sdp_addr", None), x("sdp_ptime", None)
_PARTICIPANTS = v("participants", ())


def _text(field: str) -> Term:
    return helper(str, x(field, ""))


def _media(side: str, ptime: bool = True) -> Statement:
    """Publish the SDP of an offer / answer into the shared globals."""
    writes = [write(f"g_{side}_addr", helper(str, _SDP_ADDR)),
              write(f"g_{side}_port", helper(int, x("sdp_port", 0))),
              write(f"g_{side}_pts", helper(tuple, x("sdp_pts", ())))]
    if ptime:
        writes.append(when(truthy(_PTIME),
                           write("g_ptime_ms", helper(int, _PTIME))))
    return when(truthy(_SDP_ADDR), *writes)


ON_INVITE = (
    write("call_id", _text("call_id")),
    write("invite_branch", _text("branch")),
    # A From header without a tag leaves the declared default ''.
    when(truthy(x("from_tag", None)), write("from_tag", _text("from_tag"))),
    write("invite_src_ip", _text("src_ip")),
    write("invite_cseq", helper(int, x("cseq_num", 0))),
    write("participants", helper(
        add_participants, _PARTICIPANTS, x("src_ip", None),
        x("contact_host", None), _SDP_ADDR, x("via_hosts", ()))),
    _media("offer"),
)
ON_PROVISIONAL = (
    when(truthy(x("to_tag", None)), write("to_tag", _text("to_tag"))),
    write("participants", helper(add_participants, _PARTICIPANTS,
                                 x("contact_host", None))),
)
#: The provisional updates first: the answer's SDP address joins the set
#: the callee's Contact just joined.
ON_ANSWER = ON_PROVISIONAL + (
    write("participants", helper(add_participants, _PARTICIPANTS, _SDP_ADDR)),
    _media("answer"),
)
#: A genuine re-INVITE may move the media; refresh the offer globals.
ON_REINVITE = _media("offer", ptime=False)
#: Record the full (ip, port) source of the BYE: after-close media is
#: attributed to toll fraud only when it comes from the BYE *sender*, and
#: two UAs behind one NAT address differ only in port.
ON_BYE = (
    write("bye_branch", _text("branch")),
    write("g_bye_src_ip", _text("src_ip")),
    write("g_bye_src_port", 0),
    when(truthy(x("src_port", 0)),
         write("g_bye_src_port", helper(int, x("src_port", 0)))),
)

#: Arguments of the δ media events, and of δ_bye / δ_cancelled.
_MEDIA_ARGS = {"call_id": v("call_id", None), "addr": _SDP_ADDR,
               "port": x("sdp_port", None), "payload_types": x("sdp_pts", ()),
               "ptime_ms": _PTIME}
_DELTA_ARGS = {"call_id": v("call_id", None), "src_ip": x("src_ip", None)}


def build_sip_machine(config: VidsConfig = DEFAULT_CONFIG) -> Efsm:
    """Construct the deterministic per-call SIP EFSM."""
    machine = Efsm(SIP_MACHINE, INIT)
    for state in SIP_STATES:
        machine.add_state(state)
    for state in (CLOSED, CANCELLED, FAILED):
        machine.add_state(state, final=True)
    for state in SIP_ATTACK_STATES:
        machine.add_state(state, attack=True, final=True)

    machine.declare(
        call_id="",
        invite_branch="",
        from_tag="",
        to_tag="",
        invite_src_ip="",
        invite_cseq=0,
        bye_branch="",
        participants=(),
    )
    machine.declare_global(**MEDIA_GLOBALS)
    machine.declare_channel(SIP_TO_RTP)

    cross = config.cross_protocol

    # ---- INIT ---------------------------------------------------------------

    machine.add_transition(
        INIT, "INVITE", INVITE_RCVD,
        predicate=IS_INITIAL_INVITE,
        action=ON_INVITE,
        outputs=[Output(SIP_TO_RTP, DELTA_SESSION_OFFER, _MEDIA_ARGS)]
        if cross else [],
        label="invite",
    )

    # ---- retransmission self-loops ----------------------------------------

    for state in (INVITE_RCVD, PROCEEDING):
        machine.add_transition(
            state, "INVITE", state, predicate=SAME_INVITE_BRANCH,
            label="invite-retransmit")

    # ---- provisional / final responses during setup ------------------------

    answer_outputs = ([Output(SIP_TO_RTP, DELTA_SESSION_ANSWER, _MEDIA_ARGS)]
                      if cross else [])

    machine.add_transition(INVITE_RCVD, "RESPONSE", PROCEEDING,
                           predicate=IS_1XX_INVITE, action=ON_PROVISIONAL,
                           label="1xx")
    machine.add_transition(PROCEEDING, "RESPONSE", PROCEEDING,
                           predicate=IS_1XX_INVITE, action=ON_PROVISIONAL,
                           label="1xx-again")
    failed_outputs = ([Output(SIP_TO_RTP, DELTA_CANCELLED, _DELTA_ARGS)]
                      if cross else [])
    for state in (INVITE_RCVD, PROCEEDING):
        machine.add_transition(state, "RESPONSE", ANSWERED,
                               predicate=IS_2XX_INVITE, action=ON_ANSWER,
                               outputs=list(answer_outputs), label="200-invite")
        # A failed setup also closes the (never-used) media session so the
        # whole call system reaches final states and can be reclaimed.
        machine.add_transition(
            state, "RESPONSE", FAILED,
            predicate=IS_FAILED_INVITE,
            outputs=list(failed_outputs),
            label="invite-failed")

    # ---- CANCEL handling -----------------------------------------------------

    cancel_outputs = ([Output(SIP_TO_RTP, DELTA_CANCELLED, _DELTA_ARGS)]
                      if cross else [])
    for state in (INVITE_RCVD, PROCEEDING):
        machine.add_transition(state, "CANCEL", CANCELLING,
                               predicate=SRC_IS_PARTICIPANT,
                               outputs=list(cancel_outputs), label="cancel")
        machine.add_transition(
            state, "CANCEL", ATTACK_CANCEL, predicate=~SRC_IS_PARTICIPANT,
            attack=True, label="third-party-cancel")

    machine.add_transition(CANCELLING, "RESPONSE", CANCELLED,
                           predicate=IS_487_INVITE, label="487")
    machine.add_transition(
        CANCELLING, "RESPONSE", CANCELLING,
        predicate=~IS_487_INVITE & ~IS_2XX_INVITE, label="cancel-200")
    # Race: the callee answered before the CANCEL landed.
    machine.add_transition(CANCELLING, "RESPONSE", ANSWERED,
                           predicate=IS_2XX_INVITE, action=ON_ANSWER,
                           outputs=list(answer_outputs), label="cancel-race-200")
    machine.add_transition(CANCELLING, "CANCEL", CANCELLING,
                           label="cancel-retransmit")
    machine.add_transition(CANCELLED, "ACK", CANCELLED, label="ack-487")
    machine.add_transition(CANCELLED, "RESPONSE", CANCELLED,
                           label="late-response")

    # ---- establishment -----------------------------------------------------

    machine.add_transition(ANSWERED, "ACK", ESTABLISHED, label="ack")
    machine.add_transition(ANSWERED, "RESPONSE", ANSWERED,
                           predicate=IS_2XX_INVITE, label="200-retransmit")
    machine.add_transition(ESTABLISHED, "ACK", ESTABLISHED,
                           label="ack-retransmit")
    machine.add_transition(ESTABLISHED, "RESPONSE", ESTABLISHED,
                           label="late-response")

    # ---- in-dialog INVITE (re-INVITE vs hijack) -----------------------------

    machine.add_transition(ESTABLISHED, "INVITE", ESTABLISHED,
                           predicate=SRC_IS_PARTICIPANT, action=ON_REINVITE,
                           label="re-invite")
    machine.add_transition(
        ESTABLISHED, "INVITE", ATTACK_HIJACK, predicate=~SRC_IS_PARTICIPANT,
        attack=True, label="hijack-invite")

    # ---- teardown ------------------------------------------------------------

    bye_outputs = ([Output(SIP_TO_RTP, DELTA_BYE, _DELTA_ARGS)]
                   if cross else [])
    for state in (ANSWERED, ESTABLISHED):
        machine.add_transition(state, "BYE", TEARDOWN,
                               predicate=SRC_IS_PARTICIPANT, action=ON_BYE,
                               outputs=list(bye_outputs), label="bye")
        machine.add_transition(
            state, "BYE", ATTACK_BYE, predicate=~SRC_IS_PARTICIPANT,
            attack=True, label="third-party-bye")

    machine.add_transition(TEARDOWN, "RESPONSE", CLOSED,
                           predicate=IS_2XX_BYE, label="bye-200")
    machine.add_transition(TEARDOWN, "RESPONSE", TEARDOWN,
                           predicate=~IS_2XX_BYE, label="stale-response")
    machine.add_transition(TEARDOWN, "BYE", TEARDOWN, label="bye-retransmit")
    machine.add_transition(TEARDOWN, "ACK", TEARDOWN, label="stale-ack")

    for event in ("BYE", "RESPONSE", "ACK"):
        machine.add_transition(CLOSED, event, CLOSED, label="after-close")
    for event in ("ACK", "RESPONSE"):
        machine.add_transition(FAILED, event, FAILED, label="after-fail")

    # ---- attack states absorb further traffic (one alert per entry) ---------
    for state in SIP_ATTACK_STATES:
        for event in _ALL_EVENTS:
            machine.add_transition(state, event, state, label="absorbed")
    return machine
