"""The per-call RTP protocol state machine (vids media model).

Implements the media half of Figure 2(a) plus the cross-protocol patterns of
Figures 5 and 6:

- the machine opens only on a ``δ_SIP→RTP`` session-offer synchronization
  event from the SIP machine (media before signaling is a deviation);
- per-direction state (SSRC, last sequence number, last timestamp, rate
  window) feeds the media-spamming predicates — "if the timestamp or the
  sequence number of the incoming packet has a sudden gap larger than Δt or
  Δn respectively ... the fabricated message being injected into the media
  stream is detected";
- on ``δ_bye`` the machine starts timer T for in-flight packets; after T
  expires the machine sits in RTP_Close, where any further media is the
  Figure-5 attack signal: toll fraud when a guard finds the packet comes
  from the BYE sender itself, BYE DoS otherwise;
- payload types outside the negotiated set, and packet rates above
  ``rtp_flood_factor`` times the negotiated codec rate, mark the
  RTP-flooding / codec-change attacks of Section 3.2.

Event vocabulary:

- data event ``RTP_PACKET`` with ``x``: ``src_ip``, ``src_port``,
  ``dst_ip``, ``ssrc``, ``seq``, ``ts``, ``pt``, ``direction``
  ("to_caller"/"to_callee");
- sync events δ_offer / δ_answer / δ_bye / δ_cancelled on the SIP→RTP
  channel; timer event ``T``.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..efsm.events import TIMER_CHANNEL
from ..efsm.guards import NOW, helper, start, truthy, v, when, write, x
from ..efsm.machine import Efsm
from .config import DEFAULT_CONFIG, VidsConfig
from .sync import (
    DELTA_BYE,
    DELTA_CANCELLED,
    DELTA_SESSION_ANSWER,
    DELTA_SESSION_OFFER,
    MEDIA_GLOBALS,
    RTP_MACHINE,
    SIP_TO_RTP,
)

__all__ = ["build_rtp_machine", "RTP_STATES", "RTP_ATTACK_STATES"]

INIT = "INIT"
RTP_OPEN = "RTP_Open"
RTP_ACTIVE = "RTP_Rcvd"
RTP_AFTER_BYE = "RTP_rcvd_after_BYE"
RTP_CLOSE = "RTP_Close"
ATTACK_SPAM = "ATTACK_Media_Spam"
ATTACK_FLOOD = "ATTACK_RTP_Flood"
ATTACK_CODEC = "ATTACK_Codec_Change"
ATTACK_AFTER_CLOSE = "ATTACK_Media_After_Close"
ATTACK_TOLL_FRAUD = "ATTACK_Toll_Fraud"

RTP_STATES = (INIT, RTP_OPEN, RTP_ACTIVE, RTP_AFTER_BYE, RTP_CLOSE)
RTP_ATTACK_STATES = (ATTACK_SPAM, ATTACK_FLOOD, ATTACK_CODEC,
                     ATTACK_AFTER_CLOSE, ATTACK_TOLL_FRAUD)

_SEQ_MOD = 1 << 16
_TS_MOD = 1 << 32


#: The verdict on one media packet, in priority order: the four
#: ``RTP_Rcvd`` guards each compare the ``verdict`` helper's answer to one
#: of these, so they are disjoint without looking inside the helper.
CLEAN, CODEC, SPAM, FLOOD = range(4)

_DIRECTION = x("direction", None)
_SSRC, _SEQ, _TS = x("ssrc", 0), x("seq", 0), x("ts", 0)


def stream_of(direction: Any, to_callee: tuple, to_caller: tuple,
              unknown: tuple) -> tuple:
    """The packet's stream: ``(ssrc, seq, ts, window_start,
    window_count)``, or ``()`` before its first packet."""
    if direction == "to_callee":
        return to_callee
    if direction == "to_caller":
        return to_caller
    return unknown


def build_rtp_machine(config: VidsConfig = DEFAULT_CONFIG) -> Efsm:
    """Construct the deterministic per-call RTP EFSM.

    With ``config.cross_protocol`` disabled the SIP machine never sends the
    δ that opens the session, so the machine degenerates to an INIT state
    that ignores all media — the ablation showing that *every* session-
    scoped media check depends on the cross-protocol interaction.
    """
    if not config.cross_protocol:
        return _build_disabled_rtp_machine()
    machine = Efsm(RTP_MACHINE, INIT)
    for state in RTP_STATES:
        machine.add_state(state)
    machine.add_state(RTP_CLOSE, final=True)
    for state in RTP_ATTACK_STATES:
        machine.add_state(state, attack=True, final=True)

    machine.declare(to_caller=(), to_callee=(), unknown=())
    machine.declare_channel(SIP_TO_RTP)
    # Declared by the SIP machine too; a standalone RTP machine (unit
    # tests) needs the defaults as well.
    machine.declare_global(**MEDIA_GLOBALS)

    # ---- session lifecycle driven by δ sync events ----------------------

    machine.add_transition(INIT, DELTA_SESSION_OFFER, RTP_OPEN,
                           channel=SIP_TO_RTP, label="offer")
    machine.add_transition(RTP_OPEN, DELTA_SESSION_ANSWER, RTP_OPEN,
                           channel=SIP_TO_RTP, label="answer")
    machine.add_transition(RTP_ACTIVE, DELTA_SESSION_ANSWER, RTP_ACTIVE,
                           channel=SIP_TO_RTP, label="late-answer")
    machine.add_transition(RTP_OPEN, DELTA_CANCELLED, RTP_CLOSE,
                           channel=SIP_TO_RTP, label="cancelled")

    arm_inflight_timer = start("T", config.bye_inflight_timer,
                               call_id=x("call_id", None))

    # Even when vids has seen no media yet, first packets may already be in
    # flight when the BYE crosses — the Figure-5 grace timer applies.
    machine.add_transition(RTP_OPEN, DELTA_BYE, RTP_AFTER_BYE,
                           channel=SIP_TO_RTP, action=arm_inflight_timer,
                           label="bye-before-media")
    machine.add_transition(RTP_ACTIVE, DELTA_BYE, RTP_AFTER_BYE,
                           channel=SIP_TO_RTP, action=arm_inflight_timer,
                           label="bye")
    # Early media then CANCEL: the caller can push packets before any final
    # response, and the CANCEL's δ must not be a deviation (spec-lint's
    # product pass caught this configuration).  In-flight media gets the
    # same Figure-5 grace timer as the BYE path.
    machine.add_transition(RTP_ACTIVE, DELTA_CANCELLED, RTP_AFTER_BYE,
                           channel=SIP_TO_RTP, action=arm_inflight_timer,
                           label="cancelled-with-media")
    machine.add_transition(RTP_AFTER_BYE, "T", RTP_CLOSE,
                           channel=TIMER_CHANNEL, label="inflight-done")
    machine.add_transition(RTP_AFTER_BYE, "RTP_PACKET", RTP_AFTER_BYE,
                           label="inflight-packet")
    # Duplicate δ_bye (BYE retransmitted) while draining in-flight media.
    machine.add_transition(RTP_AFTER_BYE, DELTA_BYE, RTP_AFTER_BYE,
                           channel=SIP_TO_RTP, label="bye-retransmit")
    machine.add_transition(RTP_CLOSE, DELTA_BYE, RTP_CLOSE,
                           channel=SIP_TO_RTP, label="late-bye")
    # CANCEL/200 race: the SIP machine can still emit δ_answer after the
    # session was cancelled (callee's 200 OK crossed the CANCEL on the
    # wire); absorb it wherever the cancellation already moved us.
    machine.add_transition(RTP_AFTER_BYE, DELTA_SESSION_ANSWER, RTP_AFTER_BYE,
                           channel=SIP_TO_RTP, label="answer-after-bye")
    machine.add_transition(RTP_CLOSE, DELTA_SESSION_ANSWER, RTP_CLOSE,
                           channel=SIP_TO_RTP, label="answer-after-close")

    # ---- packet analysis ------------------------------------------------

    detect_codec_change = config.detect_codec_change
    seq_gap, ts_gap = config.media_spam_seq_gap, config.media_spam_ts_gap
    flood_window = config.rtp_flood_window
    flood_factor = config.rtp_flood_factor

    def verdict(pt: Any, offered: tuple, answered: tuple, stream: tuple,
                ssrc: Any, seq: Any, ts: Any, now: float,
                ptime_ms: Any) -> int:
        """codec > spam > flood > clean, decided in one pass.

        Under compiled dispatch the benign first match evaluates this once
        per packet; an attack guard evaluates it again, but holds at most
        once per call (attack states absorb), so nothing is memoized.
        """
        if (detect_codec_change and pt not in offered and pt not in answered
                and (offered or answered)):
            return CODEC
        if not stream:
            return CLEAN
        last_ssrc, last_seq, last_ts, window_start, window_count = stream
        if (ssrc != last_ssrc
                or (seq - last_seq) % _SEQ_MOD > seq_gap
                or (ts - last_ts) % _TS_MOD > ts_gap):
            return SPAM
        if now - window_start < flood_window:
            expected = (1000.0 / (ptime_ms or 20)) * flood_window
            if window_count + 1 > flood_factor * expected:
                return FLOOD
        return CLEAN

    def track_packet(stream: tuple, ssrc: Any, seq: Any, ts: Any,
                     now: float) -> Tuple[int, int, int, float, int]:
        """The stream tuple rebuilt: state values are immutable, so a
        checkpoint shares them instead of copying (``copy_state``)."""
        if stream and now - stream[3] < flood_window:
            window_start, window_count = stream[3], stream[4] + 1
        else:
            window_start, window_count = now, 1
        return (int(ssrc), int(seq), int(ts), window_start, window_count)

    # The packet's verdict, as a guard term: the named helper leaf.
    packet = helper(verdict, x("pt", -1), v("g_offer_pts", ()),
                    v("g_answer_pts", ()),
                    helper(stream_of, _DIRECTION, v("to_callee", ()),
                           v("to_caller", ()), v("unknown", ())),
                    _SSRC, _SEQ, _TS, NOW, v("g_ptime_ms", 20))
    # A clean packet rebuilds the tuple of the stream its direction names.
    callee, caller = _DIRECTION == "to_callee", _DIRECTION == "to_caller"
    track = tuple(
        when(selected, write(name, helper(track_packet, v(name, ()), _SSRC,
                                          _SEQ, _TS, NOW)))
        for name, selected in (("to_callee", callee), ("to_caller", caller),
                               ("unknown", ~callee & ~caller)))

    # First media packet of the session.
    machine.add_transition(
        RTP_OPEN, "RTP_PACKET", RTP_ACTIVE, predicate=packet != CODEC,
        action=track, label="first-media")
    machine.add_transition(RTP_OPEN, "RTP_PACKET", ATTACK_CODEC,
                           predicate=packet == CODEC,
                           attack=True, label="bad-codec-first")

    # Steady state: one verdict per packet, so the guards are mutually
    # disjoint by construction.
    machine.add_transition(RTP_ACTIVE, "RTP_PACKET", RTP_ACTIVE,
                           predicate=packet == CLEAN,
                           action=track, label="media")
    for answer, state, label in ((CODEC, ATTACK_CODEC, "codec-change"),
                                 (SPAM, ATTACK_SPAM, "media-spam"),
                                 (FLOOD, ATTACK_FLOOD, "rtp-flood")):
        machine.add_transition(RTP_ACTIVE, "RTP_PACKET", state,
                               predicate=packet == answer,
                               attack=True, label=label)

    # ---- the Figure-5 attack signal ----------------------------------------

    # Toll fraud when the media comes from the BYE *sender*: its IP, and
    # its signalling port or a media port it negotiated at that IP (two UAs
    # behind one NAT address differ only in port).  No recorded BYE port
    # leaves the IP alone to decide.
    bye_ip, bye_port = v("g_bye_src_ip", ""), v("g_bye_src_port", 0)
    src_port = x("src_port", 0)
    from_bye_sender = truthy(bye_ip) & (x("src_ip", "") == bye_ip) & (
        (bye_port == 0) | (src_port == bye_port) | (truthy(src_port) & (
            ((v("g_offer_addr", "") == bye_ip)
             & (v("g_offer_port", 0) == src_port))
            | ((v("g_answer_addr", "") == bye_ip)
               & (v("g_answer_port", 0) == src_port)))))
    machine.add_transition(RTP_CLOSE, "RTP_PACKET", ATTACK_TOLL_FRAUD,
                           predicate=from_bye_sender, attack=True,
                           label="toll-fraud")
    machine.add_transition(RTP_CLOSE, "RTP_PACKET", ATTACK_AFTER_CLOSE,
                           predicate=~from_bye_sender, attack=True,
                           label="media-after-close")

    # ---- attack states absorb further traffic --------------------------------

    for state in RTP_ATTACK_STATES:
        machine.add_transition(state, "RTP_PACKET", state, label="absorbed")
        for delta in (DELTA_SESSION_OFFER, DELTA_SESSION_ANSWER, DELTA_BYE,
                      DELTA_CANCELLED):
            machine.add_transition(state, delta, state,
                                   channel=SIP_TO_RTP, label="absorbed")
        machine.add_transition(state, "T", state, channel=TIMER_CHANNEL,
                               label="absorbed")
    return machine


def _build_disabled_rtp_machine() -> Efsm:
    """An inert RTP machine for the no-cross-protocol ablation.

    INIT is marked final so call records can still be reclaimed once the
    SIP machine finishes; every media packet self-loops (no deviations, no
    attacks).  Nothing sends it a δ and it starts no timer, so it has no
    other arm.
    """
    machine = Efsm(RTP_MACHINE, INIT)
    machine.add_state(INIT, final=True)
    machine.declare_global(**MEDIA_GLOBALS)
    machine.add_transition(INIT, "RTP_PACKET", INIT, label="ignored")
    return machine
