"""Scenario runner: the experiment harness behind every table and figure.

A scenario builds the Figure-7 testbed, optionally installs vids on the
inline host, installs a random call workload (and any attack injectors),
runs the simulation, and collects the measurements Section 7 reports:
per-call setup delays (Figure 9), RTP delay and delay variation
(Figure 10), vids CPU utilization and per-call memory (Section 7.3), and
alerts (Section 7.5).

Because the random streams are named and seeded, a with-vids run and a
without-vids run of the same :class:`ScenarioParams` see the identical call
pattern, making the comparison paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..netsim.faults import FaultyLink, ShardFaultPlan, inject_faults

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs import Observability
from ..vids.cluster import DEFAULT_CLUSTER_CONFIG, ClusterConfig
from ..vids.config import DEFAULT_CONFIG, VidsConfig
from ..vids.replay import Pipeline, build_pipeline
from .callgen import CallWorkload, WorkloadParams
from .enterprise import EnterpriseTestbed, TestbedParams, build_testbed
from .phone import CallRecordStats

__all__ = ["ScenarioParams", "ScenarioResult", "run_scenario"]

#: Extra simulated time after the workload horizon so calls complete.
DRAIN_TIME = 120.0
#: Registrations happen this long before the first call.
REGISTRATION_LEAD = 5.0


@dataclass
class ScenarioParams:
    """Everything that defines one experiment run."""

    testbed: TestbedParams = field(default_factory=TestbedParams)
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    with_vids: bool = True
    vids_config: VidsConfig = DEFAULT_CONFIG
    #: Attack injectors (objects with ``install(testbed)``).
    attacks: tuple = ()
    drain_time: float = DRAIN_TIME
    #: Optional fault plan installed on the vids perimeter link (the
    #: router-B side), so chaos runs stress exactly the traffic the IDS
    #: inspects.  See :mod:`repro.netsim.faults`.
    fault_plan: Optional["FaultPlan"] = None
    #: Callables invoked as ``hook(testbed, vids, sim)`` after workload and
    #: attacks are installed but before the run — for scheduling scenario
    #: events (e.g. poisoning a call mid-run in chaos tests).
    hooks: tuple = ()
    #: Observability bundle (trace bus + metrics registry + profiler)
    #: threaded through vids, the fault layer, and the netsim gauges.
    obs: Optional["Observability"] = None
    #: Analysis shards: 1 runs the classic single pipeline; N > 1 installs
    #: a :class:`~repro.vids.sharding.ShardedVids` facade on the inline
    #: device instead (docs/SCALING.md).
    shards: int = 1
    #: Put the shards under a :class:`~repro.vids.cluster.ShardSupervisor`
    #: (checkpointing, health-checked failover, backpressure) — the
    #: robustness tier of docs/ROBUSTNESS.md "Supervision & failover".
    supervise: bool = False
    #: Supervision tunables (cadence, heartbeats, backoff, queue bound).
    cluster_config: ClusterConfig = DEFAULT_CLUSTER_CONFIG
    #: Deterministic shard-kill/hang/slowdown injections against the
    #: supervised cluster (chaos scenarios).
    shard_fault_plan: Optional[ShardFaultPlan] = None


@dataclass
class ScenarioResult:
    """Measurements collected from one run."""

    params: ScenarioParams
    calls: List[CallRecordStats]
    vids: Optional[Pipeline]
    cpu_utilization: float
    elapsed: float
    workload: CallWorkload
    testbed: EnterpriseTestbed
    #: The installed fault wrapper when ``params.fault_plan`` was set.
    faulty_link: Optional["FaultyLink"] = None

    # -- call setup (Figure 9) -------------------------------------------------

    def setup_delays(self, caller: Optional[str] = None) -> List[float]:
        """Setup delays (INVITE -> 180) of answered caller-side legs."""
        delays = []
        for record in self.calls:
            if not record.is_caller_side or record.setup_delay is None:
                continue
            if caller is not None and not record.caller.startswith(caller):
                continue
            delays.append(record.setup_delay)
        return delays

    @property
    def mean_setup_delay(self) -> float:
        delays = self.setup_delays()
        return sum(delays) / len(delays) if delays else 0.0

    # -- media QoS (Figure 10) ------------------------------------------------

    def rtp_delays(self) -> List[float]:
        return [r.rtp_mean_delay for r in self.calls
                if r.rtp_packets_received > 0]

    def rtp_delay_variations(self) -> List[float]:
        return [r.rtp_delay_variation for r in self.calls
                if r.rtp_packets_received > 1]

    def rtp_jitters(self) -> List[float]:
        return [r.rtp_jitter for r in self.calls
                if r.rtp_packets_received > 1]

    def mos_scores(self) -> List[float]:
        """Per-leg E-model MOS from measured delay and loss (G.729)."""
        from ..rtp.quality import estimate_mos

        scores = []
        for record in self.calls:
            total = record.rtp_packets_received + record.rtp_lost
            if record.rtp_packets_received == 0 or total == 0:
                continue
            loss = record.rtp_lost / total
            scores.append(estimate_mos(record.rtp_mean_delay, loss))
        return scores

    @property
    def mean_mos(self) -> float:
        scores = self.mos_scores()
        return sum(scores) / len(scores) if scores else 0.0

    @property
    def mean_rtp_delay(self) -> float:
        delays = self.rtp_delays()
        return sum(delays) / len(delays) if delays else 0.0

    @property
    def mean_rtp_delay_variation(self) -> float:
        values = self.rtp_delay_variations()
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_rtp_jitter(self) -> float:
        values = self.rtp_jitters()
        return sum(values) / len(values) if values else 0.0

    # -- bookkeeping ------------------------------------------------------------

    @property
    def answered_calls(self) -> int:
        return sum(1 for r in self.calls if r.is_caller_side and r.answered)

    @property
    def placed_calls(self) -> int:
        return sum(1 for r in self.calls if r.is_caller_side)

    def alerts_by_type(self) -> Dict[str, int]:
        if self.vids is None:
            return {}
        return {t.value: c for t, c in self.vids.alert_manager.counts.items()}

    def summary(self) -> Dict[str, Any]:
        return {
            "with_vids": self.params.with_vids,
            "placed_calls": self.placed_calls,
            "answered_calls": self.answered_calls,
            "mean_setup_delay": self.mean_setup_delay,
            "mean_rtp_delay": self.mean_rtp_delay,
            "mean_rtp_delay_variation": self.mean_rtp_delay_variation,
            "mean_rtp_jitter": self.mean_rtp_jitter,
            "mean_mos": self.mean_mos,
            "cpu_utilization": self.cpu_utilization,
            "alerts": self.alerts_by_type(),
        }


def run_scenario(params: ScenarioParams) -> ScenarioResult:
    """Build, run, and measure one scenario."""
    testbed = build_testbed(params.testbed)
    sim = testbed.sim

    obs = params.obs
    vids: Optional[Pipeline] = None
    if params.with_vids:
        vids, _ = build_pipeline(
            config=params.vids_config, shards=params.shards,
            supervise=params.supervise, cluster=params.cluster_config,
            obs=obs, fault_plan=params.shard_fault_plan, sim=sim)
        testbed.attach_processor(vids)

    if obs is not None and obs.registry is not None:
        testbed.network.register_metrics(obs.registry)
        testbed.vids_device.register_metrics(obs.registry)

    testbed.register_all()
    sim.run(until=REGISTRATION_LEAD)

    # The workload draws from the *network's* stream factory so the pattern
    # depends only on the testbed seed, not on with/without vids.
    workload = CallWorkload(
        params.workload,
        testbed.network.streams.fork("workload"),
        n_callers=len(testbed.phones_a),
        n_callees=len(testbed.phones_b),
    )
    # Shift arrivals past the registration lead.
    base = sim.now
    for planned in workload.calls:
        planned.arrival_time += base
    workload.install(testbed)

    for attack in params.attacks:
        attack.install(testbed)

    faulty_link: Optional[FaultyLink] = None
    if params.fault_plan is not None:
        # links[0] is the router-B (perimeter) side: everything the inline
        # device inspects crosses it in both directions.
        faulty_link = inject_faults(
            testbed.vids_device.links[0], params.fault_plan,
            trace=obs.trace if obs is not None else None)

    for hook in params.hooks:
        hook(testbed, vids, sim)

    end_time = base + params.workload.horizon + params.drain_time
    testbed.network.run(until=end_time)

    if vids is not None:
        # Close the books on a shedding interval still open at the end of
        # the run, so shed_time reflects it (docs/ROBUSTNESS.md).
        vids.flush_shed_interval()

    calls: List[CallRecordStats] = []
    for phone in testbed.phones_a + testbed.phones_b:
        calls.extend(phone.stats)
    calls.sort(key=lambda record: record.placed_at)

    cpu = testbed.vids_device.cpu_utilization(until=end_time)
    return ScenarioResult(
        params=params,
        calls=calls,
        vids=vids,
        cpu_utilization=cpu,
        elapsed=sim.now,
        workload=workload,
        testbed=testbed,
        faulty_link=faulty_link,
    )
