"""Seeded input generators for the wire-to-alert benchmark.

Every generator takes the workload seed and returns a time-ordered list
of :class:`~repro.vids.replay.CapturedPacket`; the same seed yields the
same bytes (the tests pin this with a sha256 of the written pcap).  The
packet *count* of a workload does not depend on the seed, only on
``scale`` — rates measured on different seeds stay comparable.

Sizes are chosen for a 2-core shared box and the benchmark contract's
~30 s-per-run budget; ``scale=0.1`` is the ``--quick`` smoke size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.netsim import Datagram, Endpoint
from repro.rtp import RtpPacket
from repro.sip import SipRequest, SipResponse
from repro.vids import CapturedPacket

#: G.729: 20 ms frames, 20-byte payload (the smallest media packet, where
#: per-packet cost dominates), 160 timestamp units per frame at 8 kHz.
G729_PT = 18
G729_PAYLOAD = bytes(20)
G729_INTERVAL = 0.02
G729_TS_STEP = 160

SIP_PORT = 5060

#: Full-size dialog counts (scale=1.0).
CHURN_CALLS = 1000
STEADY_CALLS = 100
STEADY_PACKETS_PER_STREAM = 150

#: ``sip_churn`` interleaving: this many dialogs in flight, one datagram
#: every ``CHURN_SPACING`` seconds.
CHURN_DEPTH = 8
CHURN_SPACING = 0.06


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(count * scale)))


def _sdp(host: str, port: int) -> str:
    return (f"v=0\r\no=- 1 1 IN IP4 {host}\r\ns=c\r\nc=IN IP4 {host}\r\n"
            f"t=0 0\r\nm=audio {port} RTP/AVP {G729_PT}\r\n"
            f"a=rtpmap:{G729_PT} G729/8000\r\n")


@dataclass
class Dialog:
    """Wire identity of one benign call between two user agents.

    ``caller``/``callee`` are the signalling endpoints the datagrams
    travel between; ``offer_port``/``answer_port`` the negotiated media
    ports on the caller's and the callee's host.
    """

    tag: str
    caller: Endpoint
    callee: Endpoint
    callee_user: str
    offer_port: int
    answer_port: int

    @property
    def call_id(self) -> str:
        return f"e2e-{self.tag}@{self.caller.ip}"

    def _request(self, method: str, cseq: str, branch: str,
                 body: str = "") -> SipRequest:
        uri = f"sip:{self.callee_user}@b.example.com"
        message = SipRequest(method, uri, body=body)
        message.set("Via", f"SIP/2.0/UDP {self.caller.ip}:{self.caller.port}"
                           f";branch=z9hG4bK{self.tag}{branch}")
        message.set("From", f"<sip:alice@a.example.com>;tag=f{self.tag}")
        message.set("To", f"<{uri}>" if method == "INVITE"
                    else f"<{uri}>;tag=t{self.tag}")
        message.set("Call-ID", self.call_id)
        message.set("CSeq", cseq)
        return message

    def _response(self, status: int, cseq: str, body: str = "") -> SipResponse:
        uri = f"sip:{self.callee_user}@b.example.com"
        message = SipResponse(status, body=body)
        message.set("Via", f"SIP/2.0/UDP {self.caller.ip}:{self.caller.port}"
                           f";branch=z9hG4bK{self.tag}i")
        message.set("From", f"<sip:alice@a.example.com>;tag=f{self.tag}")
        message.set("To", f"<{uri}>;tag=t{self.tag}")
        message.set("Call-ID", self.call_id)
        message.set("CSeq", cseq)
        message.set("Contact", f"<sip:{self.callee_user}@{self.callee.ip}"
                               f":{self.callee.port}>")
        return message

    def setup(self) -> List[Tuple[Endpoint, Endpoint, bytes]]:
        """INVITE (SDP offer) / 180 / 200 (SDP answer) / ACK."""
        invite = self._request("INVITE", "1 INVITE", "i",
                               body=_sdp(self.caller.ip, self.offer_port))
        invite.set("Contact",
                   f"<sip:alice@{self.caller.ip}:{self.caller.port}>")
        invite.set("Content-Type", "application/sdp")
        ok = self._response(200, "1 INVITE",
                            body=_sdp(self.callee.ip, self.answer_port))
        ok.set("Content-Type", "application/sdp")
        a, b = self.caller, self.callee
        return [
            (a, b, invite.serialize()),
            (b, a, self._response(180, "1 INVITE").serialize()),
            (b, a, ok.serialize()),
            (a, b, self._request("ACK", "1 ACK", "a").serialize()),
        ]

    def teardown(self) -> List[Tuple[Endpoint, Endpoint, bytes]]:
        """BYE from the callee (a recorded participant) / 200."""
        bye = SipRequest("BYE", "sip:alice@a.example.com")
        bye.set("Via", f"SIP/2.0/UDP {self.callee.ip}:{self.callee.port}"
                       f";branch=z9hG4bK{self.tag}b")
        bye.set("From", f"<sip:{self.callee_user}@b.example.com>"
                        f";tag=t{self.tag}")
        bye.set("To", f"<sip:alice@a.example.com>;tag=f{self.tag}")
        bye.set("Call-ID", self.call_id)
        bye.set("CSeq", "2 BYE")
        a, b = self.caller, self.callee
        return [(b, a, bye.serialize()),
                (a, b, self._response(200, "2 BYE").serialize())]


def _dialogs(rng: random.Random, count: int) -> List[Dialog]:
    """``count`` dialogs with distinct Call-ID, caller IP, callee, ports.

    Distinct callers keep the per-source INVITE counter (DRDoS pattern)
    quiet and distinct callees the per-callee one (Figure 4), so the
    workload measures benign analysis, not the alert path.
    """
    salt = f"{rng.getrandbits(32):08x}"
    net = rng.randrange(1, 100)
    port_base = 20_000 + 2 * rng.randrange(0, 2_000)
    dialogs = []
    for n in range(count):
        caller_ip = f"10.{net}.{1 + (n // 200) % 200}.{11 + n % 200}"
        dialogs.append(Dialog(
            tag=f"{salt}{n}",
            caller=Endpoint(caller_ip, SIP_PORT),
            callee=Endpoint("10.200.0.11", SIP_PORT),
            callee_user=f"u{salt}{n}",
            offer_port=port_base + (n % 10_000) * 2,
            answer_port=port_base + 20_002 + (n % 10_000) * 2))
    return dialogs


def _packet(time: float, src: Endpoint, dst: Endpoint,
            payload: bytes) -> CapturedPacket:
    return CapturedPacket(time, Datagram(src, dst, payload, created_at=time))


def sip_churn(seed: int, scale: float = 1.0) -> List[CapturedPacket]:
    """Complete benign dialogs, ``CHURN_DEPTH`` in flight, no media."""
    rng = random.Random(seed)
    dialogs = _dialogs(rng, scaled(CHURN_CALLS, scale, CHURN_DEPTH))
    capture: List[CapturedPacket] = []
    for start in range(0, len(dialogs), CHURN_DEPTH):
        group = [d.setup() + d.teardown()
                 for d in dialogs[start:start + CHURN_DEPTH]]
        # Message k of every dialog in the group, then message k+1, ...
        for step in range(6):
            for messages in group:
                src, dst, payload = messages[step]
                capture.append(_packet(len(capture) * CHURN_SPACING,
                                       src, dst, payload))
    return capture


def rtp_stream(rng: random.Random) -> Callable[[int], bytes]:
    """Serializer for packet ``index`` of one G.729 stream."""
    ssrc = rng.getrandbits(32)
    seq0 = rng.randrange(0, 30_000)
    ts0 = rng.getrandbits(31)

    def packet(index: int) -> bytes:
        return RtpPacket(G729_PT, seq0 + index, ts0 + index * G729_TS_STEP,
                         ssrc, payload=G729_PAYLOAD).serialize()
    return packet


def rtp_steady(seed: int, scale: float = 1.0) -> List[CapturedPacket]:
    """Calls set up by four SIP messages, then steady two-way G.729."""
    rng = random.Random(seed)
    dialogs = _dialogs(rng, scaled(STEADY_CALLS, scale, 4))
    per_stream = STEADY_PACKETS_PER_STREAM
    capture: List[CapturedPacket] = []
    for n, dialog in enumerate(dialogs):
        for step, (src, dst, payload) in enumerate(dialog.setup()):
            capture.append(_packet(0.01 * n + 0.002 * step, src, dst,
                                   payload))
    media_start = 0.01 * len(dialogs) + 1.0
    for dialog in dialogs:
        caller_media = Endpoint(dialog.caller.ip, dialog.offer_port)
        callee_media = Endpoint(dialog.callee.ip, dialog.answer_port)
        for src, dst in ((caller_media, callee_media),
                         (callee_media, caller_media)):
            packet = rtp_stream(rng)
            phase = rng.random() * G729_INTERVAL
            capture.extend(
                _packet(media_start + phase + index * G729_INTERVAL,
                        src, dst, packet(index))
                for index in range(per_stream))
    end = media_start + per_stream * G729_INTERVAL + 0.5
    for n, dialog in enumerate(dialogs):
        for step, (src, dst, payload) in enumerate(dialog.teardown()):
            capture.append(_packet(end + 0.01 * n + 0.002 * step,
                                   src, dst, payload))
    # Stable: the streams interleave by time, ties keep stream order.
    capture.sort(key=lambda packet: packet.time)
    return capture


def loopback_dialogs(seed: int, sip_port: int,
                     rtp_ports: Sequence[int]) -> List[Dialog]:
    """Dialogs whose every address is 127.0.0.1 and whose SDP ports are
    the front-end's bound ephemeral ports (two per call)."""
    rng = random.Random(seed)
    salt = f"{rng.getrandbits(32):08x}"
    tap = Endpoint("127.0.0.1", sip_port)
    return [Dialog(tag=f"{salt}{n}", caller=tap, callee=tap,
                   callee_user=f"u{salt}{n}",
                   offer_port=rtp_ports[2 * n],
                   answer_port=rtp_ports[2 * n + 1])
            for n in range(len(rtp_ports) // 2)]


# -- mixed_attack / mixed_cluster: the paper's traffic plus every injector ----

#: Injector rounds at full size: every Section-3 attack strikes this often.
MIXED_ROUNDS = 3
#: Share of the finished capture added as seeded noise datagrams.
NOISE_SHARE = 0.01

#: Phones per enterprise network and who plays what.  The injectors pick
#: the *first* established / ringing call in ``testbed.phones_b`` order,
#: and an attacker's never-ACKed INVITEs leave calls ringing for good on
#: every phone they reach — so the recording hook reverses that list and
#: the last phone takes one dedicated victim call per attack and nothing
#: else.  The DRDoS fan-out reaches b1-b2, the flood b2; each round's
#: registration hijack takes over a phone nobody calls (a hijacked
#: binding diverts later calls to the attacker, and the IDS reports an
#: address-of-record once); the background calls use the rest.
PHONES = 8
VICTIM = "b8@b.example.com"
DRDOS_CALLEES = 2
FLOOD_TARGET = "b2@b.example.com"
REGISTRATION_VICTIMS = ("b3@b.example.com", "b4@b.example.com",
                        "b5@b.example.com")
BACKGROUND = (5, 6)

#: Slot timing (seconds).  A victim call placed at the slot start is
#: ringing from ~0.2 s and established on both legs by ~1.7 s (answer
#: delay 0.8-1.2 s plus four 55 ms transits).
STRIKE_ESTABLISHED = 2.2
STRIKE_RINGING = 0.6
VICTIM_DURATION = 3.0
SLOT_ESTABLISHED = 5.0
SLOT_RINGING = 3.5
SLOT_SHORT = 2.5
FIRST_SLOT = 8.0


@dataclass
class AttackInstance:
    """One launched injector: the oracle's ground truth."""

    kind: str
    #: Alert types (``AttackType.value``) of which at least one must fire.
    expected: Tuple[str, ...]
    #: Every alert type this injector is known to set off.
    allowed: Tuple[str, ...]
    #: When the injector logged its first packet (capture clock).
    time: float
    #: End of the window that explains this instance's alerts.
    window_end: float
    victim_call_id: str = ""


@dataclass
class MixedCapture:
    capture: List[CapturedPacket]
    instances: List[AttackInstance]


def _injectors(round_index: int):
    """(kind, expected, also allowed, needs, factory) for every injector.

    ``expected`` is the ``attack_matrix`` mapping of
    benchmarks/test_sec75_detection_accuracy.py.
    """
    from repro import attacks as atk

    registration_victim = REGISTRATION_VICTIMS[round_index]

    return [
        # One attacker address sends the whole flood, so the per-source
        # counter (the DRDoS pattern) trips beside the per-callee one.
        ("invite-flood", ("invite-flood",), ("drdos-reflection",), "none",
         lambda t: atk.InviteFloodAttack(t, target_aor=FLOOD_TARGET,
                                         count=20)),
        # Ten INVITEs to each of two callees: the per-callee counter trips
        # beside the per-source one.
        ("drdos-reflection", ("drdos-reflection",), ("invite-flood",), "none",
         lambda t: atk.DrdosReflectionAttack(t, count=20,
                                             callees=DRDOS_CALLEES)),
        ("bye-teardown-none", ("bye-dos",), (), "established",
         lambda t: atk.ByeTeardownAttack(t, spoof="none")),
        ("bye-teardown-peer", ("bye-dos", "toll-fraud"), (), "established",
         lambda t: atk.ByeTeardownAttack(t, spoof="peer")),
        ("cancel-dos", ("cancel-dos",), (), "ringing",
         lambda t: atk.CancelDosAttack(t)),
        ("call-hijack", ("call-hijack",), (), "established",
         lambda t: atk.CallHijackAttack(t)),
        ("toll-fraud", ("toll-fraud",), (), "established",
         lambda t: atk.TollFraudAttack(t, extra_media_time=2.0)),
        ("media-spam", ("media-spam",), (), "established",
         lambda t: atk.MediaSpamAttack(t, burst_packets=50)),
        ("rtp-flood", ("rtp-flood",), (), "established",
         lambda t: atk.RtpFloodAttack(t, mode="flood", duration=1.0)),
        ("codec-change", ("codec-change",), (), "established",
         lambda t: atk.RtpFloodAttack(t, mode="codec", duration=1.0)),
        ("registration-hijack", ("registration-hijack",), (), "none",
         lambda t: atk.RegistrationHijackAttack(
             t, victim_aor=registration_victim)),
    ]


def mixed_capture(seed: int, scale: float = 1.0) -> MixedCapture:
    """Record the Figure-7 testbed's perimeter under every injector.

    The simulator runs without vids (``with_vids=False``) and a
    :class:`~repro.vids.RecordingProcessor` on the perimeter keeps the
    datagrams.  Injectors strike one per slot, in a seeded order, each
    against a victim call placed for it; background calls between other
    phones run throughout.  The simulated Internet is lossless so that
    every single-packet attack reaches the perimeter and the attack log
    is an exact oracle.
    """
    from repro.telephony import (ScenarioParams, TestbedParams,
                                 WorkloadParams, run_scenario)
    from repro.telephony.phone import PhoneProfile
    from repro.vids import RecordingProcessor

    rng = random.Random(seed)
    rounds = scaled(MIXED_ROUNDS, scale)
    plan = []   # (slot start, what the injector needs, injector, instance)
    start = FIRST_SLOT
    for round_index in range(rounds):
        order = _injectors(round_index)
        rng.shuffle(order)
        for kind, expected, also, needs, factory in order:
            if needs == "established":
                strike, length = start + STRIKE_ESTABLISHED, SLOT_ESTABLISHED
            elif needs == "ringing":
                strike, length = start + STRIKE_RINGING, SLOT_RINGING
            else:
                strike, length = start + 0.5, SLOT_SHORT
            plan.append((start, needs, factory(strike), AttackInstance(
                kind, expected, expected + also, time=strike,
                window_end=start + length)))
            start += length
    horizon = start
    background = []     # (time, caller index, callee index, duration)
    time = 6.0
    while time < horizon - 15.0:
        index = rng.choice(BACKGROUND)
        duration = rng.uniform(19.0, 21.0)
        background.append((time, index, index,
                           min(duration, horizon - time - 5.0)))
        time += rng.uniform(17.0, 19.0)

    recorder = RecordingProcessor()

    def install(testbed, vids, sim) -> None:
        testbed.attach_processor(recorder)
        testbed.phones_b.reverse()
        victim_caller = testbed.phones_a[0]
        for slot_start, needs, _, _ in plan:
            if needs != "none":
                sim.schedule_at(slot_start, victim_caller.place_call,
                                f"sip:{VICTIM}", VICTIM_DURATION)
        for when, caller, callee, duration in background:
            sim.schedule_at(
                when, testbed.phones_a[caller].place_call,
                f"sip:b{callee + 1}@b.example.com", duration)

    run_scenario(ScenarioParams(
        testbed=TestbedParams(
            seed=seed, phones_per_network=PHONES, internet_loss=0.0,
            phone_profile=PhoneProfile(answer_delay=(0.8, 1.2), vad=False)),
        workload=WorkloadParams(mean_interarrival=1e12, horizon=horizon),
        with_vids=False, attacks=tuple(attack for _, _, attack, _ in plan),
        drain_time=10.0, hooks=(install,)))

    for _, _, attack, instance in plan:
        if not attack.launched:
            raise RuntimeError(f"{instance.kind} at {instance.time} "
                               f"never struck")
        # The injector's own log is the ground truth, not the plan.
        instance.time = attack.events[0][0]
        instance.victim_call_id = getattr(attack, "victim_call_id", "") or ""
    capture = _with_noise(rng, recorder.capture)
    return MixedCapture(capture, [instance for _, _, _, instance in plan])


def _with_noise(rng: random.Random,
                capture: List[CapturedPacket]) -> List[CapturedPacket]:
    """Merge ``NOISE_SHARE`` of benign junk into a capture, by time.

    RFC 5626 keepalives, truncated SIP, random bytes and non-VoIP UDP,
    each from its own source address and to its own port, so neither the
    per-source malformed-rate detector nor the per-destination orphan
    media detector has anything to count.
    """
    proxy = Endpoint("10.2.0.1", SIP_PORT)
    first, last = capture[0].time, capture[-1].time
    invite = capture[0].datagram.payload
    noise = []
    for n in range(int(len(capture) * NOISE_SHARE)):
        source = Endpoint(f"203.0.{113 + n // 250}.{1 + n % 250}",
                          1024 + rng.randrange(60_000))
        kind = n % 4
        if kind == 0:
            dst, payload = proxy, b"\r\n\r\n"
        elif kind == 1:
            dst = proxy
            payload = invite[:rng.randrange(8, 20)]
        elif kind == 2:
            dst = Endpoint("10.2.0.99", 6000 + n)
            payload = rng.randbytes(rng.randrange(1, 200))
        else:
            dst = Endpoint("10.2.0.53", 53)
            # A DNS query; ids below 0x8000 cannot pass for RTP version 2.
            payload = (rng.randrange(0x8000).to_bytes(2, "big")
                       + b"\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
                         b"\x07example\x03com\x00\x00\x01\x00\x01")
        noise.append(_packet(rng.uniform(first, last), source, dst, payload))
    merged = capture + noise
    merged.sort(key=lambda packet: packet.time)
    return merged
