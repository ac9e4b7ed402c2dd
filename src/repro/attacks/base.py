"""Attack injector framework.

Every attack from the paper's Section 3 threat model is an :class:`Attack`
that installs itself into a testbed: it gets (or creates) an attacker host
on the Internet side of the perimeter — so its traffic crosses the vids
inline device exactly as real attack traffic would — and schedules its
packets on the shared simulator.

Several attacks model an *on-path* adversary who has sniffed dialog or
media parameters (the paper's media-spamming attacker "knowing the SDP
information ... and the RTP synchronization source identifier").  Those
injectors read the needed values from the victim phones' protocol state —
the simulation equivalent of passive sniffing — and may spoof their UDP
source address, which the simulated network, like the real Internet, does
not validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..netsim.address import Endpoint
from ..netsim.engine import Simulator
from ..netsim.link import BPS_100BASET
from ..netsim.node import Host
from ..rtp.packet import RtpPacket
from ..rtp.session import RtpSender
from ..sip.dialog import Dialog
from ..sip.headers import new_branch, new_call_id, new_tag
from ..sip.message import SipRequest
from ..sip.sdp import SDP_CONTENT_TYPE, SessionDescription
from ..sip.useragent import Call
from ..telephony.enterprise import EnterpriseTestbed
from ..telephony.phone import SoftPhone

__all__ = ["Attack", "WaitingAttack", "attacker_host", "burst",
           "find_established_pair", "EstablishedPair", "forge_in_dialog",
           "forged_rtp", "fresh_invite"]

ATTACKER_IP = "172.16.66.6"


class Attack:
    """Base class: subclasses implement :meth:`install`."""

    name = "attack"

    def __init__(self, start_time: float):
        self.start_time = start_time
        self.events: List[Tuple[float, str]] = []

    def install(self, testbed: EnterpriseTestbed) -> None:
        raise NotImplementedError

    def log(self, time: float, what: str) -> None:
        self.events.append((time, what))

    @property
    def launched(self) -> bool:
        return bool(self.events)


class WaitingAttack(Attack):
    """An attack on a victim that may not exist yet.

    From ``start_time`` it polls :meth:`find` every ``retry_interval``
    seconds until one is found — then :meth:`strike` runs once — or until
    ``max_wait`` seconds have passed, when it gives up unlaunched.
    """

    retry_interval = 2.0

    def __init__(self, start_time: float, max_wait: float = 600.0):
        super().__init__(start_time)
        self.max_wait = max_wait
        self.victim_call_id: Optional[str] = None

    def install(self, testbed: EnterpriseTestbed) -> None:
        host = attacker_host(testbed)
        sim = testbed.sim
        deadline = self.start_time + self.max_wait

        def attempt() -> None:
            target = self.find(testbed)
            if target is None:
                if sim.now + self.retry_interval < deadline:
                    sim.schedule(self.retry_interval, attempt)
                return
            self.strike(sim, host, target)

        sim.schedule_at(max(self.start_time, sim.now), attempt)

    def find(self, testbed: EnterpriseTestbed):
        """The victim to strike, or None while there is none."""
        return find_established_pair(testbed)

    def strike(self, sim: Simulator, host: Host, target) -> None:
        raise NotImplementedError


def burst(sim: Simulator, start: float, count: int, interval: float,
          send: Callable[[int], None]) -> None:
    """Schedule ``send(index)`` at ``start + index * interval``, ``count`` times."""
    for index in range(count):
        sim.schedule_at(start + index * interval, send, index)


def attacker_host(testbed: EnterpriseTestbed,
                  ip: str = ATTACKER_IP) -> Host:
    """Get or create an attacker host attached to the Internet cloud."""
    existing = testbed.network.hosts.get(ip)
    if existing is not None:
        return existing
    host = Host(testbed.network, f"attacker-{ip}", ip)
    testbed.network.link(host, testbed.internet,
                         bandwidth_bps=BPS_100BASET,
                         propagation_delay=0.001)
    testbed.network.compute_routes()
    return host


@dataclass
class EstablishedPair:
    """An established call seen from both ends (what a sniffer would know)."""

    caller_phone: SoftPhone
    caller_call: Call
    callee_phone: SoftPhone
    callee_call: Call

    def media(self) -> Optional[Tuple[RtpSender, Endpoint]]:
        """The caller's live RTP sender and the callee's media endpoint."""
        session = self.caller_phone._media.get(self.caller_call.call_id)
        sender = session.sender if session is not None else None
        answer = self.caller_call.remote_sdp
        if sender is None or answer is None or answer.audio is None:
            return None
        return sender, Endpoint(answer.connection_address, answer.audio.port)


def find_established_pair(
        testbed: EnterpriseTestbed) -> Optional[EstablishedPair]:
    """Locate an established A->B call and both its legs."""
    for callee_phone in testbed.phones_b:
        for call in callee_phone.ua.calls.values():
            if call.state != "established" or call.is_caller:
                continue
            for caller_phone in testbed.phones_a:
                peer = caller_phone.ua.calls.get(call.call_id)
                if peer is not None and peer.state == "established":
                    return EstablishedPair(caller_phone, peer,
                                           callee_phone, call)
    return None


def forge_in_dialog(sim: Simulator, dialog: Dialog, method: str,
                    via_host: str, body: str = "") -> SipRequest:
    """The next in-dialog request ``dialog``'s owner expects from its peer."""
    request = SipRequest(method, dialog.local_addr.uri.with_params(),
                         body=body)
    request.set("Via",
                f"SIP/2.0/UDP {via_host}:5060;branch={new_branch(sim)}")
    request.set("Max-Forwards", 70)
    request.set("From", str(dialog.remote_addr))
    request.set("To", str(dialog.local_addr))
    request.set("Call-ID", dialog.call_id)
    request.set("CSeq", f"{dialog.remote_cseq + 1} {method}")
    return request


def fresh_invite(sim: Simulator, callee: str, ip: str, media_port: int,
                 caller: str, contact: str) -> SipRequest:
    """A new call from ``caller`` at ``ip`` to ``callee``, offering G.729."""
    sdp = SessionDescription.for_audio(ip, media_port, 18, "G729")
    request = SipRequest("INVITE", f"sip:{callee}", body=sdp.serialize())
    request.set("Via", f"SIP/2.0/UDP {ip}:5060;branch={new_branch(sim)}")
    request.set("Max-Forwards", 70)
    request.set("From", f"<sip:{caller}>;tag={new_tag(sim)}")
    request.set("To", f"<sip:{callee}>")
    request.set("Call-ID", new_call_id(sim, ip))
    request.set("CSeq", "1 INVITE")
    request.set("Contact", f"<sip:{contact}>")
    request.set("Content-Type", SDP_CONTENT_TYPE)
    return request


def forged_rtp(payload_type: int, ssrc: int, seq: int, ts: int,
               index: int) -> bytes:
    """Packet ``index`` of a 20 ms stream that continues ``seq``/``ts``."""
    return RtpPacket(payload_type=payload_type,
                     sequence_number=(seq + index) % (1 << 16),
                     timestamp=(ts + index * 160) % (1 << 32),
                     ssrc=ssrc, payload=bytes(20)).serialize()
