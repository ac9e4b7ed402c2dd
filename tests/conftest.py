"""Shared fixtures: a miniature two-domain VoIP network."""

import os
from dataclasses import dataclass

import pytest

from repro.netsim import (
    BPS_DS1,
    Host,
    InternetCloud,
    Network,
    Router,
)
from repro.sip import (
    DomainDirectory,
    ProxyServer,
    SessionDescription,
    UserAgent,
)
from tests import load_module

# Tier-1 is deterministic (ROADMAP): under the default ``tier1`` profile the
# property suites draw the same examples on every run and keep no example
# database.  ``HYPOTHESIS_PROFILE=explore`` (CI's non-gating
# property-explore job, which makes several passes) draws fresh random
# examples on every run instead.
try:
    from hypothesis import settings
except ImportError:         # only the property suites need hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False, database=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@dataclass
class MiniVoip:
    """Two UAs in different domains connected through proxies and a cloud."""

    net: Network
    ua_a: UserAgent
    ua_b: UserAgent
    proxy_a: ProxyServer
    proxy_b: ProxyServer
    dns: DomainDirectory
    cloud: InternetCloud

    @property
    def sim(self):
        return self.net.sim

    def sdp_for(self, ua: UserAgent, port: int = 20_000,
                payload_type: int = 18,
                encoding: str = "G729") -> SessionDescription:
        return SessionDescription.for_audio(ua.host.ip, port, payload_type,
                                            encoding)

    def register_both(self):
        self.ua_a.register()
        self.ua_b.register()
        self.net.run(until=self.sim.now + 2.0)
        assert self.ua_a.registered and self.ua_b.registered


def build_mini_voip(seed=0, internet_delay=0.05, internet_loss=0.0):
    net = Network(seed=seed)
    router_a = Router(net, "router-a")
    router_b = Router(net, "router-b")
    cloud = InternetCloud(net, transit_delay=internet_delay,
                          loss_rate=internet_loss)
    host_a = Host(net, "ua-a", "10.1.0.11")
    host_b = Host(net, "ua-b", "10.2.0.11")
    proxy_host_a = Host(net, "proxy-a", "10.1.0.1")
    proxy_host_b = Host(net, "proxy-b", "10.2.0.1")
    net.link(host_a, router_a)
    net.link(proxy_host_a, router_a)
    net.link(host_b, router_b)
    net.link(proxy_host_b, router_b)
    net.link(router_a, cloud, bandwidth_bps=BPS_DS1, propagation_delay=0.001)
    net.link(router_b, cloud, bandwidth_bps=BPS_DS1, propagation_delay=0.001)
    dns = DomainDirectory()
    proxy_a = ProxyServer(proxy_host_a, "a.example.com", dns)
    proxy_b = ProxyServer(proxy_host_b, "b.example.com", dns)
    ua_a = UserAgent(host_a, "sip:alice@a.example.com", proxy_a.endpoint)
    ua_b = UserAgent(host_b, "sip:bob@b.example.com", proxy_b.endpoint)
    net.compute_routes()
    return MiniVoip(net, ua_a, ua_b, proxy_a, proxy_b, dns, cloud)


@pytest.fixture(scope="session")
def benign_mining_run():
    """One benign traced scenario, run once per session.

    Shared by the specdiff tests — the scenario run dominates their cost.
    ``mean_duration`` sits well below the horizon so teardown
    (BYE/200/Closed) paths appear in the trace.
    """
    from types import SimpleNamespace

    from repro.obs import Observability
    from repro.telephony import (ScenarioParams, TestbedParams,
                                 WorkloadParams, run_scenario)

    obs = Observability(trace_capacity=400_000)
    result = run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=11, phones_per_network=4),
        workload=WorkloadParams(mean_interarrival=25.0, mean_duration=60.0,
                                horizon=200.0),
        with_vids=True, drain_time=90.0, obs=obs))
    return SimpleNamespace(obs=obs, result=result)


@pytest.fixture(scope="session")
def sim_ident():
    """``tools/sim_ident.py``, the simulator's fingerprint tool."""
    return load_module("tools/sim_ident.py")


@pytest.fixture(scope="session")
def mixed_capture(sim_ident):
    """The seed-23 mixed-attack capture that the tier-parity harness and
    the failover contracts replay: ``tools/sim_ident.py``'s fixture23
    recipe, recorded once per session."""
    return tuple(sim_ident.scenario_capture())


@pytest.fixture
def mini_voip():
    return build_mini_voip()


@pytest.fixture
def lossy_voip():
    return build_mini_voip(seed=2, internet_loss=0.05)
