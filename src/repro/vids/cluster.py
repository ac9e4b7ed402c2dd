"""Supervised shard cluster: checkpoint/restore, failover, backpressure.

The paper's detection model is stateful by construction — every active
call is a live product of interacting SIP/RTP EFSMs — so in a deployed
IDS a crashed or wedged shard silently destroys detection state for every
call it hosts.  This module adds the supervision tier over
:class:`~repro.vids.sharding.ShardedVids` (docs/ROBUSTNESS.md
"Supervision & failover", docs/SCALING.md):

- **Checkpointing.**  A :class:`ShardSupervisor` snapshots each member
  every ``checkpoint_cadence`` packets.  Every object checkpoints its own
  state (:meth:`Vids.snapshot <repro.vids.ids.Vids.snapshot>` and the
  parts it is made of; the cross-call trackers ride with member 0), and
  each ``snapshot(previous)`` carries over what has not changed since the
  previous checkpoint — a call whose EFSM system has not fired, an alert
  log that has not grown.

- **Health-checked failover.**  The supervisor heartbeats every member
  on a fixed cadence; a member that misses ``heartbeat_misses``
  consecutive deadlines (killed, or wedged past its hang window) is
  declared DOWN, its packets are parked on a bounded admission queue,
  and it is restarted from the last checkpoint with exponential backoff
  between attempts.  The bounded loss window — at most the packets
  processed since that checkpoint — is accounted in
  ``cluster_lost_packets`` and on the per-incident record.  A queue that
  overflows degrades into the existing watermark-shedding accounting
  instead of growing without bound.

Packets arrive through the one ingest loop (:mod:`repro.vids.ingest`),
whose ``admit`` hook here is :meth:`ShardSupervisor.dispatch` — the one
place that evaluates member health, the parked queue and the checkpoint
countdown.

Chaos inputs come from :class:`~repro.netsim.faults.ShardFaultPlan` —
deterministic kill/hang injections at absolute simulation times, same
reproducibility contract as link faults.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Any, Deque, Dict, List, Mapping, Optional

from ..netsim.faults import ShardFaultPlan
from ..netsim.packet import Datagram
from .ids import Vids
from .ingest import ingest
from .sharding import ShardedVids, shard_for_call

#: ``shard_for_call`` is re-exported, not called here: external tooling
#: that patches the routing hash (the benchmark's span shims) patches it
#: on every module that ever routed.
__all__ = ["ClusterConfig", "DEFAULT_CLUSTER_CONFIG", "ClusterMetrics",
           "MemberState", "ShardCheckpoint", "ShardMember",
           "ShardSupervisor", "SupervisedCluster", "shard_for_call"]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of the supervision tier."""

    #: Packets a member processes between checkpoints.  The loss window
    #: after a crash is bounded by this number; 1 means every packet is
    #: durable (and a restored run is packet-identical to a fault-free
    #: one, the chaos-suite contract).
    checkpoint_cadence: int = 64
    #: Seconds between supervisor heartbeats.
    heartbeat_interval: float = 0.5
    #: Consecutive missed heartbeats before a member is declared DOWN.
    heartbeat_misses: int = 2
    #: Base delay before the first restart attempt of a DOWN member.
    restart_backoff: float = 0.5
    #: Exponential growth factor between failed restart attempts.
    backoff_factor: float = 2.0
    #: Ceiling on the restart backoff.
    backoff_max: float = 8.0
    #: Bounded admission queue per member; packets offered to an
    #: unreachable member park here.  Overflow degrades into shedding
    #: accounting (the packet is forwarded fail-open, uninspected).
    admission_queue_limit: int = 4096

    def with_overrides(self, **overrides) -> "ClusterConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)


DEFAULT_CLUSTER_CONFIG = ClusterConfig()


@dataclass
class ClusterMetrics:
    """Counters maintained by the supervisor."""

    checkpoints_taken: int = 0
    calls_checkpointed: int = 0
    heartbeat_misses: int = 0
    members_down: int = 0
    members_restarted: int = 0
    restart_failures: int = 0
    lost_packets: int = 0
    packets_requeued: int = 0
    backpressure_drops: int = 0
    fault_kills: int = 0
    fault_hangs: int = 0

    _COUNTER_FIELDS = (
        ("checkpoints_taken", "Shard checkpoints taken"),
        ("calls_checkpointed", "Call snapshots written across checkpoints"),
        ("heartbeat_misses", "Heartbeat deadlines missed by members"),
        ("members_down", "Times a member was declared DOWN"),
        ("members_restarted", "Members restarted from checkpoint"),
        ("restart_failures", "Restart attempts that failed (backoff grew)"),
        ("lost_packets", "Packets inside crash loss windows"),
        ("packets_requeued", "Parked packets replayed after recovery"),
        ("backpressure_drops", "Admission-queue overflow drops"),
        ("fault_kills", "Injected shard-kill faults"),
        ("fault_hangs", "Injected shard-hang faults"),
    )

    def register_with(self, registry: Any, prefix: str = "cluster") -> None:
        """Expose every counter through an obs ``MetricsRegistry``."""
        for name, help_text in self._COUNTER_FIELDS:
            registry.counter(f"{prefix}_{name}", help_text).set_function(
                partial(getattr, self, name))

    def summary(self) -> Dict[str, Any]:
        return {name: getattr(self, name)
                for name, _ in self._COUNTER_FIELDS}


class MemberState(Enum):
    """Supervisor's view of one shard member."""

    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"


@dataclass
class ShardCheckpoint:
    """Serializable snapshot of one member's complete analysis state."""

    shard: int
    taken_at: float
    #: The member's :meth:`Vids.snapshot <repro.vids.ids.Vids.snapshot>`.
    vids: Mapping[str, Any]
    #: The cross-call trackers' snapshot; only the first member, where
    #: their alerts land, carries it.
    trackers: Optional[Mapping[str, Any]] = None


@dataclass
class ShardMember:
    """Supervisor bookkeeping for one shard."""

    index: int
    vids: Vids
    state: MemberState = MemberState.UP
    #: False after a kill fault: the member process is gone until the
    #: supervisor restarts it.
    alive: bool = True
    #: The member is wedged (alive but unresponsive) until this time.
    hung_until: float = 0.0
    consecutive_misses: int = 0
    restart_attempts: int = 0
    next_restart_at: float = 0.0
    packets_since_checkpoint: int = 0
    checkpoint: Optional[ShardCheckpoint] = None
    #: Bounded admission queue of parked ``(classified, when)`` pairs.
    queue: Deque = field(default_factory=deque)


class ShardSupervisor:
    """Heartbeats, checkpoints and restarts shard members."""

    def __init__(
        self,
        sharded: ShardedVids,
        config: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
        fault_plan: Optional[ShardFaultPlan] = None,
    ):
        self.sharded = sharded
        self.config = config
        self.fault_plan = fault_plan
        self.clock_now = sharded.clock_now
        self.timer_scheduler = sharded.timer_scheduler
        self.metrics = ClusterMetrics()
        self.obs = sharded.obs
        self._trace = self.obs.trace if self.obs is not None else None
        self.members: List[ShardMember] = [
            ShardMember(index=index, vids=shard)
            for index, shard in enumerate(sharded.shards)
        ]
        #: One record per down/restore cycle, for loss-window forensics.
        self.incidents: List[Dict[str, Any]] = []
        if self.obs is not None and self.obs.registry is not None:
            self._register_metrics(self.obs.registry)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Take baseline checkpoints, arm faults, start heartbeating."""
        now = self.clock_now()
        for member in self.members:
            self.take_checkpoint(member)
        plan = self.fault_plan
        if plan is not None:
            for at, shard in plan.kills:
                self.timer_scheduler(max(0.0, at - now),
                                     partial(self._kill, shard))
            for at, until, shard in plan.hangs:
                self.timer_scheduler(max(0.0, at - now),
                                     partial(self._hang, shard, until))
        self.timer_scheduler(self.config.heartbeat_interval, self._heartbeat)

    # -- fault injection ------------------------------------------------------

    def _kill(self, index: int) -> None:
        """Injected crash: the member process dies on the spot."""
        member = self.members[index]
        member.alive = False
        self.metrics.fault_kills += 1
        # A dead process can no longer mutate shared state: detach its
        # media-route callback so its still-scheduled timers don't keep
        # editing the facade's routing table from beyond the grave.
        member.vids.factbase.on_media_route = None
        if self._trace is not None:
            self._trace.emit("shard-kill", self.clock_now(), shard=index)

    def _hang(self, index: int, until: float) -> None:
        """Injected wedge: alive but unresponsive until ``until``."""
        member = self.members[index]
        member.hung_until = max(member.hung_until, until)
        self.metrics.fault_hangs += 1
        if self._trace is not None:
            self._trace.emit("shard-hang", self.clock_now(), shard=index,
                             until=until)

    # -- heartbeat ------------------------------------------------------------

    def _heartbeat(self) -> None:
        now = self.clock_now()
        config = self.config
        for member in self.members:
            if member.state is MemberState.DOWN:
                if now >= member.next_restart_at:
                    self.try_restart(member, now)
                continue
            if member.alive and now >= member.hung_until:
                # Deadline met: the member answered this heartbeat.
                member.consecutive_misses = 0
                if member.state is MemberState.SUSPECT:
                    member.state = MemberState.UP
                if member.queue:
                    self._drain_queue(member)
                continue
            member.consecutive_misses += 1
            member.state = MemberState.SUSPECT
            self.metrics.heartbeat_misses += 1
            if self._trace is not None:
                self._trace.emit("heartbeat-miss", now, shard=member.index,
                                 misses=member.consecutive_misses)
            if member.consecutive_misses >= config.heartbeat_misses:
                self._declare_down(member, now)
        self.timer_scheduler(config.heartbeat_interval, self._heartbeat)

    def _declare_down(self, member: ShardMember, now: float) -> None:
        member.state = MemberState.DOWN
        member.consecutive_misses = 0
        # Everything since the last checkpoint is lost with the process.
        lost = member.packets_since_checkpoint
        self.metrics.members_down += 1
        self.metrics.lost_packets += lost
        member.vids.factbase.on_media_route = None
        backoff = self._backoff(member)
        member.next_restart_at = now + backoff
        checkpoint_at = (member.checkpoint.taken_at
                         if member.checkpoint is not None else None)
        self.incidents.append({
            "shard": member.index,
            "down_at": now,
            "checkpoint_at": checkpoint_at,
            "lost_packets": lost,
            "restart_failures": 0,
            "restored_at": None,
        })
        if self._trace is not None:
            self._trace.emit("shard-down", now, shard=member.index,
                             lost_packets=lost, checkpoint_at=checkpoint_at,
                             next_restart_at=member.next_restart_at)

    def _backoff(self, member: ShardMember) -> float:
        config = self.config
        return min(config.restart_backoff
                   * config.backoff_factor ** member.restart_attempts,
                   config.backoff_max)

    def try_restart(self, member: ShardMember, now: float) -> None:
        """Restart a DOWN member from its last checkpoint."""
        if member.alive and now < member.hung_until:
            # Still wedged: the stuck process won't yield its resources,
            # so the restart fails and the backoff grows.
            member.restart_attempts += 1
            self.metrics.restart_failures += 1
            member.next_restart_at = now + self._backoff(member)
            if self.incidents:
                self.incidents[-1]["restart_failures"] += 1
            if self._trace is not None:
                self._trace.emit("shard-restart-failed", now,
                                 shard=member.index,
                                 next_restart_at=member.next_restart_at)
            return
        assert member.checkpoint is not None
        self._apply_checkpoint(member, member.checkpoint)
        member.alive = True
        member.hung_until = 0.0
        member.state = MemberState.UP
        member.consecutive_misses = 0
        member.restart_attempts = 0
        self.metrics.members_restarted += 1
        for incident in reversed(self.incidents):
            if incident["shard"] == member.index:
                incident["restored_at"] = now
                break
        if self._trace is not None:
            self._trace.emit("shard-restored", now, shard=member.index,
                             calls=len(member.vids.factbase.records),
                             queued=len(member.queue))
        # Replay everything parked while the member was down, in arrival
        # order; then re-baseline so the recovered state is durable.
        self._drain_queue(member)
        self.take_checkpoint(member)

    # -- dispatch / backpressure ----------------------------------------------

    def dispatch(self, index: int, classified, when: float,
                 parked: bool = False) -> float:
        """Admit one classified packet to a member, or park it.

        The one place that evaluates member health and the parked queue,
        runs the member's ``process_classified``, and counts down to its
        next checkpoint.  ``parked`` marks a packet coming off the
        member's own queue: :meth:`_drain_queue` already decided its
        admission.
        """
        member = self.members[index]
        # Members degrade only through the fault plan's injections and
        # park packets only when unreachable: without a plan every member
        # always admits.
        if self.fault_plan is not None and not parked:
            reachable = (member.alive and member.state is not MemberState.DOWN
                         and when >= member.hung_until)
            if member.queue or not reachable:
                # Arrival order must survive an outage: once anything is
                # queued, new packets go behind it.
                self._enqueue(member, classified, when)
                return self._drain_queue(member) if reachable else 0.0
        cost = member.vids.process_classified(classified, when)
        since = member.packets_since_checkpoint = \
            member.packets_since_checkpoint + 1
        if since >= self.config.checkpoint_cadence:
            self.take_checkpoint(member)
        return cost

    def _enqueue(self, member: ShardMember, classified, when: float) -> None:
        if len(member.queue) >= self.config.admission_queue_limit:
            # Overflow degrades into shedding: the packet is forwarded
            # fail-open and never inspected, same contract as the
            # watermark shed, accounted on the member it was bound for.
            self.metrics.backpressure_drops += 1
            member.vids.metrics.packets_shed += 1
            if self._trace is not None:
                self._trace.emit("backpressure-drop", when,
                                 shard=member.index,
                                 queued=len(member.queue))
            return
        member.queue.append((classified, when))

    def _drain_queue(self, member: ShardMember) -> float:
        total = 0.0
        while member.queue:
            classified, when = member.queue.popleft()
            self.metrics.packets_requeued += 1
            total += self.dispatch(member.index, classified, when, True)
        return total

    # -- checkpoint / restore -------------------------------------------------

    def take_checkpoint(self, member: ShardMember) -> ShardCheckpoint:
        """Snapshot one member's analysis state (incrementally)."""
        previous = member.checkpoint
        vids = member.vids.snapshot(
            previous.vids if previous is not None else None)
        trackers = None
        if member.index == 0:
            trackers = self.sharded.trackers.snapshot(
                previous.trackers if previous is not None else None)
        checkpoint = ShardCheckpoint(
            shard=member.index, taken_at=self.clock_now(), vids=vids,
            trackers=trackers)
        member.checkpoint = checkpoint
        member.packets_since_checkpoint = 0
        self.metrics.checkpoints_taken += 1
        self.metrics.calls_checkpointed += member.vids.active_calls
        return checkpoint

    def _apply_checkpoint(self, member: ShardMember,
                          checkpoint: ShardCheckpoint) -> None:
        """Replace a member's Vids with one rebuilt from a checkpoint.

        The cross-call trackers are rewound in place: every sibling keeps
        feeding the same objects.
        """
        vids = self.sharded.build_shard(member.index)
        vids.restore(checkpoint.vids)
        if checkpoint.trackers is not None:
            self.sharded.trackers.restore(checkpoint.trackers)
        self.sharded.shards[member.index] = vids
        member.vids = vids
        # The rebuilt state has seen nothing since its checkpoint.
        member.packets_since_checkpoint = 0
        if self.obs is not None and self.obs.registry is not None:
            # The get-or-create registry re-binds every per-shard series
            # to the replacement instance (set_function replaces).
            vids._register_metrics(self.obs.registry,
                                   {"shard": str(member.index)})

    # -- inspection / observability --------------------------------------------

    @property
    def members_up(self) -> int:
        return sum(1 for m in self.members if m.state is not MemberState.DOWN)

    def queue_depth(self) -> int:
        return sum(len(m.queue) for m in self.members)

    def _register_metrics(self, registry) -> None:
        self.metrics.register_with(registry)
        registry.gauge(
            "cluster_members_up",
            "Members not currently declared DOWN",
        ).set_function(lambda: self.members_up)
        registry.gauge(
            "cluster_queue_depth",
            "Packets parked on admission queues across members",
        ).set_function(self.queue_depth)


class SupervisedCluster(ShardedVids):
    """A :class:`ShardedVids` under a :class:`ShardSupervisor`.

    Satisfies the same ``PacketProcessor`` protocol as :class:`Vids` and
    :class:`ShardedVids`, so it plugs into the inline device, the
    scenario runner (``ScenarioParams(supervise=True)``), and trace
    replay unchanged.  All packets flow through the supervisor's
    dispatch, which applies fault reachability and admission queues
    before the member's ``process_classified``.
    """

    def __init__(self, *args,
                 cluster: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
                 fault_plan: Optional[ShardFaultPlan] = None, **kwargs):
        """:class:`ShardedVids`'s own options, plus the supervision
        tunables and the faults to inject."""
        super().__init__(*args, **kwargs)
        self.supervisor = ShardSupervisor(self, cluster,
                                          fault_plan=fault_plan)
        self.supervisor.start()

    # -- PacketProcessor interface --------------------------------------------

    def process(self, datagram: Datagram, now: float) -> float:
        """Classify once, dispatch through the supervisor."""
        return ingest(self, ((datagram, now),), None,
                      self.supervisor.dispatch, self.shard_index)

    def process_batch(self, items, clock=None) -> float:
        """Time-ordered batch ingestion (the replay/offline path).

        Advancing the shared clock between packets is what fires the
        supervisor's heartbeats and the fault plan's injections at their
        scheduled simulation times during a replay.
        """
        return ingest(self, items, clock, self.supervisor.dispatch,
                      self.shard_index)

    # -- supervision views ----------------------------------------------------

    @property
    def cluster_metrics(self) -> ClusterMetrics:
        return self.supervisor.metrics

    @property
    def incidents(self) -> List[Dict[str, Any]]:
        return self.supervisor.incidents

    def summary(self) -> dict:
        summary = super().summary()
        summary["supervised"] = True
        summary["members_up"] = self.supervisor.members_up
        summary["cluster"] = self.supervisor.metrics.summary()
        summary["incidents"] = len(self.supervisor.incidents)
        return summary

    def report(self) -> str:
        """The sharded report plus the supervision ledger."""
        from ..analysis.report import format_table

        base = super().report()
        rows = []
        for member in self.supervisor.members:
            checkpoint_at = (f"{member.checkpoint.taken_at:.3f}"
                             if member.checkpoint is not None else "-")
            rows.append((str(member.index), member.state.value,
                         checkpoint_at, member.packets_since_checkpoint,
                         len(member.queue)))
        table = format_table(
            ("member", "state", "checkpoint", "since-ckpt", "queued"), rows)
        cluster = self.supervisor.metrics
        return (f"{base}\n\n=== supervision "
                f"(members up: {self.supervisor.members_up}"
                f"/{self.n_shards}) ===\n{table}\n"
                f"checkpoints: {cluster.checkpoints_taken}  "
                f"restarts: {cluster.members_restarted}  "
                f"lost packets: {cluster.lost_packets}  "
                f"requeued: {cluster.packets_requeued}")
