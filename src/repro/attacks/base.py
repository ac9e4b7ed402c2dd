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
from typing import List, Optional, Tuple

from ..netsim.link import BPS_100BASET
from ..netsim.node import Host
from ..sip.useragent import Call
from ..telephony.enterprise import EnterpriseTestbed
from ..telephony.phone import SoftPhone

__all__ = ["Attack", "attacker_host", "find_established_pair",
           "EstablishedPair"]

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
