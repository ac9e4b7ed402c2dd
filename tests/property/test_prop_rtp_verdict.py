"""The RTP machine's one-pass verdict against a reference model.

``rtp_machine.verdict`` decides codec > spam > flood > clean in one pass
over flat per-stream tuples.  The reference below is the same rule written
the slow, obvious way over per-direction dicts; generated packet sequences
(sequence numbers wrapping at 2^16, timestamps at 2^32, SSRC changes, the
flood window rolling over exactly at ``rtp_flood_window``, three streams
interleaved) must drive machine and model through the same states and the
same tracked values, under compiled and under probed dispatch.  The
Figure-5 split of media after close into toll fraud or BYE DoS is held to
the Python rule it replaced.
"""

from hypothesis import given, settings, strategies as st

from repro.efsm import EfsmSystem, Event, ManualClock
from repro.vids import (DEFAULT_CONFIG, build_rtp_machine, build_sip_machine,
                        call_spec)
from repro.vids.rtp_machine import (ATTACK_AFTER_CLOSE, ATTACK_CODEC,
                                    ATTACK_FLOOD, ATTACK_SPAM,
                                    ATTACK_TOLL_FRAUD)
from repro.vids.sync import (DELTA_BYE, DELTA_SESSION_OFFER, RTP_MACHINE,
                             SIP_TO_RTP)

from ..efsm.oracle import shadow_dispatch

#: A flood limit of 0.1 x 50 pkt/s x 0.5 s = 2.5 packets per window, so the
#: third packet inside one window floods; every time step is a multiple of
#: 1/8 s, so "exactly at the window" is exact in floating point.
CONFIG = DEFAULT_CONFIG.with_overrides(rtp_flood_window=0.5,
                                       rtp_flood_factor=0.1)
NO_CODEC_CHECK = CONFIG.with_overrides(detect_codec_change=False)
NEGOTIATED = (18,)
PTIME_MS = 20

STATE_AFTER = {"clean": "RTP_Rcvd", "codec": ATTACK_CODEC,
               "spam": ATTACK_SPAM, "flood": ATTACK_FLOOD}


def reference_verdict(config, stream, now, packet):
    """The priority rule of the machine's docstring, one clause a line."""
    if config.detect_codec_change and packet["pt"] not in NEGOTIATED:
        return "codec"
    if stream is None:
        return "clean"
    if (packet["ssrc"] != stream["ssrc"]
            or (packet["seq"] - stream["seq"]) % 2 ** 16
            > config.media_spam_seq_gap
            or (packet["ts"] - stream["ts"]) % 2 ** 32
            > config.media_spam_ts_gap):
        return "spam"
    limit = (config.rtp_flood_factor * (1000.0 / PTIME_MS)
             * config.rtp_flood_window)
    if (now - stream["window_start"] < config.rtp_flood_window
            and stream["window_count"] + 1 > limit):
        return "flood"
    return "clean"


def reference_track(config, stream, now, packet):
    rolled = (stream is None
              or now - stream["window_start"] >= config.rtp_flood_window)
    return {"ssrc": packet["ssrc"], "seq": packet["seq"], "ts": packet["ts"],
            "window_start": now if rolled else stream["window_start"],
            "window_count": 1 if rolled else stream["window_count"] + 1}


_SEQ_GAP = CONFIG.media_spam_seq_gap
_TS_GAP = CONFIG.media_spam_ts_gap

steps = st.lists(st.tuples(
    st.sampled_from(["to_caller", "to_callee", "unknown"]),
    st.sampled_from([0.0, 0.125, 0.125, 0.25, 0.5]),            # time step
    st.sampled_from([1, 1, 1, 1, 0, _SEQ_GAP, _SEQ_GAP + 1, 2 ** 16 - 1]),
    st.sampled_from([160, 160, 160, 0, _TS_GAP, _TS_GAP + 1, 2 ** 32 - 1]),
    st.sampled_from([False, False, False, False, False, True]),  # new SSRC
    st.sampled_from([18, 18, 18, 18, 18, 0]),                    # payload type
), max_size=40)

#: Where each stream starts: just short of both wraps, at zero, mid-range.
starts = st.sampled_from([(2 ** 16 - 2, 2 ** 32 - 320), (0, 0),
                          (1000, 5_000_000)])


def drive(config, start, sequence):
    """Machine and model side by side; returns what the machine did."""
    clock = ManualClock()
    system = EfsmSystem(clock_now=clock.now, timer_scheduler=clock.schedule)
    system.add_machine(build_sip_machine(config))
    rtp = system.add_machine(build_rtp_machine(config))
    system.globals.update(g_offer_pts=NEGOTIATED, g_answer_pts=NEGOTIATED,
                          g_ptime_ms=PTIME_MS)
    system.inject(RTP_MACHINE,
                  Event(DELTA_SESSION_OFFER, {}, channel=SIP_TO_RTP))
    model = {}
    now = 0.0
    trail = []
    for direction, dt, seq_step, ts_step, new_ssrc, pt in sequence:
        now += dt
        stream = model.get(direction)
        last = stream or {"ssrc": 7, "seq": start[0], "ts": start[1]}
        packet = {"ssrc": last["ssrc"] + new_ssrc,
                  "seq": (last["seq"] + seq_step) % 2 ** 16,
                  "ts": (last["ts"] + ts_step) % 2 ** 32,
                  "pt": pt, "direction": direction}
        expected = reference_verdict(config, stream, now, packet)
        system.inject(RTP_MACHINE, Event("RTP_PACKET", packet, time=now))
        assert rtp.state == STATE_AFTER[expected], (expected, packet)
        if expected != "clean":
            break       # attack states absorb everything that follows
        model[direction] = reference_track(config, stream, now, packet)
        for name in ("to_caller", "to_callee", "unknown"):
            want = model.get(name)
            assert rtp.variables.local[name] == (
                tuple(want.values()) if want else ()), name
        trail.append(dict(rtp.variables.local))
    return rtp.state, trail


@given(starts, steps)
@settings(max_examples=150, deadline=None)
def test_verdict_matches_the_reference_model(start, sequence):
    compiled = drive(CONFIG, start, sequence)
    with shadow_dispatch() as shadowed:
        assert drive(CONFIG, start, sequence) == compiled
    assert shadowed[0] >= len(compiled[1])


@given(starts, steps)
@settings(max_examples=60, deadline=None)
def test_verdict_with_the_codec_check_off(start, sequence):
    state, _ = drive(NO_CODEC_CHECK, start, sequence)
    assert state != ATTACK_CODEC


def test_the_generated_sequences_reach_every_verdict():
    """The strategy is not vacuous: hand-picked draws from it hit the
    wraps, the exact window rollover and each attack state."""
    wrap = (2 ** 16 - 2, 2 ** 32 - 320)
    clean = ("to_callee", 0.125, 1, 160, False, 18)
    # Four packets cross both wraps; 0.5 s later the window rolls over
    # exactly at the boundary instead of flooding.
    state, trail = drive(CONFIG, wrap, [clean, clean,
                                        ("to_callee", 0.5, 1, 160, False, 18),
                                        clean])
    assert state == "RTP_Rcvd"
    assert trail[-1]["to_callee"][1:3] == (2, 320)          # wrapped
    assert [t["to_callee"][4] for t in trail] == [1, 2, 1, 2]
    assert drive(CONFIG, wrap, [clean] * 3)[0] == ATTACK_FLOOD
    other = ("to_caller", 0.0, 1, 160, False, 18)
    # Interleaved streams count their windows independently.
    assert drive(CONFIG, wrap, [clean, other, clean, other])[0] == "RTP_Rcvd"
    assert drive(CONFIG, wrap, [clean, ("to_callee", 0.125, 1, 160, True,
                                        18)])[0] == ATTACK_SPAM
    assert drive(CONFIG, wrap, [clean, ("to_callee", 0.125, _SEQ_GAP + 1,
                                        160, False, 18)])[0] == ATTACK_SPAM
    assert drive(CONFIG, wrap, [clean, ("to_callee", 0.125, 1, 160, False,
                                        0)])[0] == ATTACK_CODEC
    assert drive(NO_CODEC_CHECK, wrap, [clean, ("to_callee", 0.125, 1, 160,
                                                False, 0)])[0] == "RTP_Rcvd"


def reference_from_bye_sender(media, src_ip, src_port):
    """Does after-close media come from the BYE sender?  Its IP, and its
    signalling port or a media port it negotiated at that IP; no recorded
    BYE port leaves the IP alone to decide."""
    bye_ip, bye_port = media["g_bye_src_ip"], media["g_bye_src_port"]
    if not bye_ip or src_ip != bye_ip:
        return False
    if not bye_port or src_port == bye_port:
        return True
    return bool(src_port) and any(
        media[f"g_{side}_addr"] == bye_ip and media[f"g_{side}_port"] == src_port
        for side in ("offer", "answer"))


#: Few values, so the draws collide: the BYE sender's IP on the offer, the
#: answer and the packet, its port as a negotiated media port, 0 everywhere.
ADDRS = st.sampled_from(["", "10.1.0.11", "10.2.0.11"])
PORTS = st.sampled_from([0, 5060, 20_000, 30_000])


@given(st.fixed_dictionaries({name: ADDRS if name.endswith(("ip", "addr"))
                              else PORTS for name in (
                                  "g_bye_src_ip", "g_bye_src_port",
                                  "g_offer_addr", "g_offer_port",
                                  "g_answer_addr", "g_answer_port")}),
       ADDRS, PORTS)
@settings(max_examples=400, deadline=None)
def test_after_close_attribution_matches_the_reference(media, src_ip,
                                                       src_port):
    spec, clock = call_spec(DEFAULT_CONFIG), ManualClock()
    system = EfsmSystem(clock_now=clock.now, timer_scheduler=clock.schedule)
    system.add_machine(spec.sip)
    rtp = system.add_machine(spec.rtp)
    system.globals.update(media)
    for delta in (DELTA_SESSION_OFFER, DELTA_BYE):
        system.inject(RTP_MACHINE, Event(delta, {}, channel=SIP_TO_RTP))
    clock.advance(DEFAULT_CONFIG.bye_inflight_timer)
    assert rtp.state == "RTP_Close"
    system.inject(RTP_MACHINE, Event("RTP_PACKET", {
        "src_ip": src_ip, "src_port": src_port, "dst_ip": "10.2.0.11"}))
    assert rtp.state == (ATTACK_TOLL_FRAUD if reference_from_bye_sender(
        media, src_ip, src_port) else ATTACK_AFTER_CLOSE)
