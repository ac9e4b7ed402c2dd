"""The Figure-7 testbed topology: two enterprise networks over the Internet.

Network A (domain ``a.example.com``) and network B (``b.example.com``) each
consist of N softphones and one SIP proxy hanging off a 100BaseT hub, an
edge router, and a DS1 uplink into an Internet cloud with 50 ms one-way
delay and 0.42 % loss.  The vids host is an inline device "strategically
located between the edge router and the hub of network B, allowing the
visibility of all traffic" — exactly where the paper puts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..netsim.inline import InlineDevice, PacketProcessor
from ..netsim.internet import InternetCloud
from ..netsim.link import BPS_100BASET, BPS_DS1
from ..netsim.network import Network
from ..netsim.node import Host, Hub, Router
from ..sip.dns import DomainDirectory
from ..sip.proxy import ProxyServer
from ..sip.timers import DEFAULT_TIMERS, TimerTable
from .phone import PhoneProfile, SoftPhone

__all__ = ["EnterpriseTestbed", "TestbedParams", "build_testbed"]

#: LAN propagation delay (100BaseT segment).
LAN_DELAY = 0.00005
#: Access-link propagation delay (router to cloud).
WAN_DELAY = 0.001


@dataclass
class TestbedParams:
    """Parameters of the simulated testbed (paper Section 7.1 defaults)."""

    # Not a test case, despite the name (silences pytest collection).
    __test__ = False

    phones_per_network: int = 10
    internet_delay: float = 0.050
    internet_loss: float = 0.0042
    uplink_bps: float = BPS_DS1
    #: Drop-tail buffering at the access links (seconds of queueing).
    uplink_buffer_delay: float = 0.2
    lan_bps: float = BPS_100BASET
    seed: int = 1
    phone_profile: PhoneProfile = field(default_factory=PhoneProfile)
    sip_timers: TimerTable = DEFAULT_TIMERS
    #: Enable digest authentication at both registrars; phones are
    #: provisioned with per-user passwords automatically.
    registrar_auth: bool = False


@dataclass
class EnterpriseTestbed:
    """Everything the scenarios and benchmarks need to reach."""

    network: Network
    params: TestbedParams
    dns: DomainDirectory
    proxy_a: ProxyServer
    proxy_b: ProxyServer
    phones_a: List[SoftPhone]
    phones_b: List[SoftPhone]
    vids_device: InlineDevice
    internet: InternetCloud
    router_a: Router
    router_b: Router
    hub_a: Hub
    hub_b: Hub

    @property
    def sim(self):
        return self.network.sim

    def attach_processor(self, processor: Optional[PacketProcessor]) -> None:
        """Install vids (or None for the forward-only baseline host)."""
        if processor is None:
            from ..netsim.inline import NullProcessor
            processor = NullProcessor()
        self.vids_device.processor = processor

    def register_all(self) -> None:
        for phone in self.phones_a + self.phones_b:
            phone.register()

    def phone(self, user: str) -> SoftPhone:
        """Find a phone by its user name (e.g. ``"a3"``)."""
        for phone in self.phones_a + self.phones_b:
            if phone.aor.user == user:
                return phone
        raise KeyError(user)


def build_testbed(params: Optional[TestbedParams] = None) -> EnterpriseTestbed:
    """Wire up the Figure-7 topology and return the testbed handle."""
    params = params or TestbedParams()
    net = Network(seed=params.seed)
    streams = net.streams

    internet = InternetCloud(net, transit_delay=params.internet_delay,
                             loss_rate=params.internet_loss)
    router_a = Router(net, "router-a")
    router_b = Router(net, "router-b")
    hub_a = Hub(net, "hub-a")
    hub_b = Hub(net, "hub-b")
    vids_device = InlineDevice(net, "vids-host")

    # Network A: router -- hub -- {proxy, phones}.
    net.link(router_a, hub_a, bandwidth_bps=params.lan_bps,
             propagation_delay=LAN_DELAY)
    # Network B: router -- vids -- hub -- {proxy, phones}.
    net.link(router_b, vids_device, bandwidth_bps=params.lan_bps,
             propagation_delay=LAN_DELAY)
    net.link(vids_device, hub_b, bandwidth_bps=params.lan_bps,
             propagation_delay=LAN_DELAY)
    # Uplinks into the cloud.
    net.link(router_a, internet, bandwidth_bps=params.uplink_bps,
             propagation_delay=WAN_DELAY,
             max_queue_delay=params.uplink_buffer_delay)
    net.link(router_b, internet, bandwidth_bps=params.uplink_bps,
             propagation_delay=WAN_DELAY,
             max_queue_delay=params.uplink_buffer_delay)

    dns = DomainDirectory()
    proxy_host_a = Host(net, "proxy-a", "10.1.0.1")
    proxy_host_b = Host(net, "proxy-b", "10.2.0.1")
    net.link(proxy_host_a, hub_a, bandwidth_bps=params.lan_bps,
             propagation_delay=LAN_DELAY)
    net.link(proxy_host_b, hub_b, bandwidth_bps=params.lan_bps,
             propagation_delay=LAN_DELAY)
    auth_a = auth_b = None
    if params.registrar_auth:
        from ..sip.auth import Authenticator
        auth_a = Authenticator("a.example.com", net.sim)
        auth_b = Authenticator("b.example.com", net.sim)
    proxy_a = ProxyServer(proxy_host_a, "a.example.com", dns,
                          authenticator=auth_a)
    proxy_b = ProxyServer(proxy_host_b, "b.example.com", dns,
                          authenticator=auth_b)

    phones_a: List[SoftPhone] = []
    phones_b: List[SoftPhone] = []
    for index in range(params.phones_per_network):
        host_a = Host(net, f"phone-a{index + 1}", f"10.1.0.{11 + index}")
        net.link(host_a, hub_a, bandwidth_bps=params.lan_bps,
                 propagation_delay=LAN_DELAY)
        phone_a = SoftPhone(
            host_a, f"sip:a{index + 1}@a.example.com", proxy_a.endpoint,
            rng=streams.stream(f"phone-a{index + 1}"),
            profile=params.phone_profile, timers=params.sip_timers)
        phones_a.append(phone_a)

        host_b = Host(net, f"phone-b{index + 1}", f"10.2.0.{11 + index}")
        net.link(host_b, hub_b, bandwidth_bps=params.lan_bps,
                 propagation_delay=LAN_DELAY)
        phone_b = SoftPhone(
            host_b, f"sip:b{index + 1}@b.example.com", proxy_b.endpoint,
            rng=streams.stream(f"phone-b{index + 1}"),
            profile=params.phone_profile, timers=params.sip_timers)
        phones_b.append(phone_b)

        if params.registrar_auth:
            from ..sip.auth import DigestCredentials
            for phone, auth, domain in ((phone_a, auth_a, "a.example.com"),
                                        (phone_b, auth_b, "b.example.com")):
                user = phone.aor.user or ""
                password = f"pw-{user}"
                auth.add_user(user, password)
                phone.ua.credentials = DigestCredentials(user, domain,
                                                         password)

    net.compute_routes()
    return EnterpriseTestbed(
        network=net,
        params=params,
        dns=dns,
        proxy_a=proxy_a,
        proxy_b=proxy_b,
        phones_a=phones_a,
        phones_b=phones_b,
        vids_device=vids_device,
        internet=internet,
        router_a=router_a,
        router_b=router_b,
        hub_a=hub_a,
        hub_b=hub_b,
    )
