"""Supervised shard cluster: checkpoint/restore, failover, backpressure.

The paper's detection model is stateful by construction — every active
call is a live product of interacting SIP/RTP EFSMs — so in a deployed
IDS a crashed or wedged shard silently destroys detection state for every
call it hosts.  This module adds the supervision tier over
:class:`~repro.vids.sharding.ShardedVids` (docs/ROBUSTNESS.md
"Supervision & failover", docs/SCALING.md):

- **Checkpointing.**  A :class:`ShardSupervisor` snapshots each member's
  call-state fact base (machine states, variable vectors, timers, media
  routes, quarantine lists, metrics, alerts) every
  ``checkpoint_cadence`` packets.  Checkpoints are *incremental*: a
  call whose EFSM system has not fired since the previous checkpoint
  reuses its prior snapshot (the firing count is an exact change
  version, see :meth:`CallRecord._sizes`).

- **Health-checked failover.**  The supervisor heartbeats every member
  on a fixed cadence; a member that misses ``heartbeat_misses``
  consecutive deadlines (killed, or wedged past its hang window) is
  declared DOWN, its packets are parked on a bounded admission queue,
  and it is restarted from the last checkpoint with exponential backoff
  between attempts.  The bounded loss window — at most the packets
  processed since that checkpoint — is accounted in
  ``cluster_lost_packets`` and on the per-incident record.

- **Migration & rebalancing.**  :meth:`ShardSupervisor.migrate_call`
  hands a live call to a sibling by checkpoint transfer: the target
  restores first (re-firing the ``on_media_route`` hooks, so the
  facade's RTP routing re-homes atomically with the call), then the
  source evicts without deletion bookkeeping.  SIP re-homes through a
  per-call routing override consulted before the consistent hash.

- **Backpressure.**  With ``credit_limit`` set, dispatch is
  credit-gated: credits replenish at each heartbeat only while the
  member's backlog is below ``credit_backlog_limit``, excess packets
  queue, and queue overflow degrades into the existing watermark-
  shedding accounting instead of growing without bound.

Packets arrive through the one ingest loop (:mod:`repro.vids.ingest`),
whose ``admit`` hook here is :meth:`ShardSupervisor.dispatch` — the one
place that evaluates member health, credits, the parked queue and the
checkpoint countdown.

Chaos inputs come from :class:`~repro.netsim.faults.ShardFaultPlan` —
deterministic kill/hang/slow-member injections at absolute simulation
times, same reproducibility contract as link faults.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple)

from ..netsim.engine import Simulator
from ..netsim.faults import ShardFaultPlan
from ..netsim.packet import Datagram
from .alerts import Alert
from .config import DEFAULT_CONFIG, VidsConfig
from .factbase import MediaKey
from .ids import Vids
from .ingest import ingest
from .metrics import VidsMetrics
from .sharding import ShardedVids, shard_for_call

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Observability

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
    #: unreachable or credit-exhausted member park here.  Overflow
    #: degrades into shedding accounting (the packet is forwarded
    #: fail-open, uninspected).
    admission_queue_limit: int = 4096
    #: Credits granted per heartbeat for credit-based dispatch; ``None``
    #: (default) disables the credit gate entirely — dispatch is direct
    #: and the fault-free cluster is packet-identical to a bare
    #: :class:`ShardedVids`.
    credit_limit: Optional[int] = None
    #: Backlog (seconds of unworked CPU) above which a member's credits
    #: are *not* replenished — the member is falling behind, so admission
    #: slows before the watermark shed has to engage.
    credit_backlog_limit: float = 0.5
    #: Fraction of a hot member's calls moved per rebalance pass.
    rebalance_fraction: float = 0.5

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
    migrations: int = 0
    calls_migrated: int = 0
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
        ("migrations", "Rebalance passes that moved at least one call"),
        ("calls_migrated", "Calls handed to a sibling by checkpoint transfer"),
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
    #: Member-local packet sequence number at snapshot time.
    packet_seq: int
    #: call_id -> :meth:`CallStateFactBase.checkpoint_call` snapshot.
    calls: Dict[str, Dict[str, Any]]
    #: call_id -> firing-count version (drives incremental reuse).
    call_versions: Dict[str, int]
    quarantined: Dict[str, float]
    quarantined_media: Dict[MediaKey, str]
    metrics: VidsMetrics
    alerts: List[Alert]
    alert_counts: Counter
    deviation_keys: set
    malformed_windows: Dict[str, list]
    busy_until: float
    shedding: bool
    shed_started: float
    #: Cross-call tracker snapshots; only the first member (which owns
    #: the shared trackers) carries them.
    trackers: Optional[Dict[str, Any]] = None
    #: Stray-request dedup keys (shared set, owned by the first member).
    stray_keys: Optional[set] = None
    #: Change signal behind ``trackers``/``stray_keys`` (drives
    #: incremental reuse, like ``call_versions`` for calls).
    tracker_version: Optional[Tuple[int, int, int, int]] = None


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
    #: Packets processed as of the last checkpoint or restore.
    packet_seq: int = 0
    checkpoint: Optional[ShardCheckpoint] = None
    #: Remaining dispatch credits (None: credit gate disabled).
    credits: Optional[int] = None
    #: Bounded admission queue of parked ``(classified, when)`` pairs.
    queue: Deque = field(default_factory=deque)


def _restore_metrics(target: VidsMetrics, source: VidsMetrics) -> None:
    """Write a checkpointed metrics snapshot into a live instance.

    In place, because the member's fact base and registry callbacks hold
    references to the target object.
    """
    for name, _ in VidsMetrics._COUNTER_FIELDS:
        setattr(target, name, getattr(source, name))
    target.peak_concurrent_calls = source.peak_concurrent_calls
    target.peak_state_bytes = source.peak_state_bytes
    target.call_memory_samples = list(source.call_memory_samples)
    target.shed_intervals = list(source.shed_intervals)


def _snapshot_metrics(source: VidsMetrics) -> VidsMetrics:
    """Deep-enough copy of a live metrics object for a checkpoint.

    The fields are flat counters plus two lists of immutable tuples, so a
    ``__dict__`` copy with the two lists re-materialised suffices;
    ``copy.deepcopy`` (or even a per-field getattr/setattr loop) costs
    more than the whole rest of a checkpoint on this hot path.
    """
    snapshot = VidsMetrics()
    state = snapshot.__dict__
    state.update(source.__dict__)
    state["call_memory_samples"] = list(source.call_memory_samples)
    state["shed_intervals"] = list(source.shed_intervals)
    return snapshot


def _copy_windows(windows: Dict[str, list]) -> Dict[str, list]:
    """Copy the malformed-rate windows (``{src: [start, count, fired]}``)."""
    return {src: list(window) for src, window in windows.items()}


class ShardSupervisor:
    """Heartbeats, checkpoints, restarts, and rebalances shard members."""

    def __init__(
        self,
        sharded: ShardedVids,
        config: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
        fault_plan: Optional[ShardFaultPlan] = None,
    ):
        self.sharded = sharded
        self.config = config
        self.fault_plan = fault_plan
        #: Whether :meth:`dispatch` can ever refuse a packet.  Members
        #: degrade only through the fault plan's injections and park
        #: packets only when unreachable or out of credit, so without a
        #: plan and a credit gate every member always admits.
        self._gated = (fault_plan is not None
                       or config.credit_limit is not None)
        self.clock_now = sharded.clock_now
        self.timer_scheduler = sharded.timer_scheduler
        self.metrics = ClusterMetrics()
        self.obs = sharded.obs
        self._trace = self.obs.trace if self.obs is not None else None
        self.members: List[ShardMember] = [
            ShardMember(index=index, vids=shard,
                        credits=config.credit_limit)
            for index, shard in enumerate(sharded.shards)
        ]
        #: Per-call routing overrides installed by migration: the facade's
        #: own table, which its ``shard_index`` consults before the hash.
        self.call_routes: Dict[str, int] = sharded.call_routes
        #: One record per down/restore cycle, for loss-window forensics.
        self.incidents: List[Dict[str, Any]] = []
        self._started = False
        if self.obs is not None and self.obs.registry is not None:
            self._register_metrics(self.obs.registry)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Take baseline checkpoints, arm faults, start heartbeating."""
        if self._started:
            return
        self._started = True
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

    def _reachable(self, member: ShardMember, now: float) -> bool:
        return (member.alive and member.state is not MemberState.DOWN
                and now >= member.hung_until)

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
                if config.credit_limit is not None:
                    self._replenish(member, now)
                elif member.queue:
                    self._drain_queue(member, now)
                continue
            member.consecutive_misses += 1
            member.state = MemberState.SUSPECT
            self.metrics.heartbeat_misses += 1
            if self._trace is not None:
                self._trace.emit("heartbeat-miss", now, shard=member.index,
                                 misses=member.consecutive_misses)
            if member.consecutive_misses >= config.heartbeat_misses:
                self._declare_down(member, now)
        self._prune_call_routes()
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

    def try_restart(self, member: ShardMember, now: float) -> bool:
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
            return False
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
        self._drain_queue(member, now, force=True)
        self.take_checkpoint(member)
        return True

    # -- dispatch / backpressure ----------------------------------------------

    def dispatch(self, index: int, classified, when: float,
                 parked: bool = False) -> float:
        """Admit one classified packet to a member, or park it.

        The one place that evaluates member health, credits and the
        parked queue, runs the member's ``process_classified``, and
        counts down to its next checkpoint.  ``parked`` marks a packet
        coming off the member's own queue: :meth:`_drain_queue` already
        decided its admission.
        """
        member = self.members[index]
        gated = self._gated
        if gated and not parked:
            reachable = self._reachable(member, when)
            credits = member.credits
            if (member.queue or not reachable
                    or (credits is not None and credits <= 0)):
                # Arrival order must survive backpressure: once anything
                # is queued, new packets go behind it.
                self._enqueue(member, classified, when)
                return self._drain_queue(member, when) if reachable else 0.0
            if credits is not None:
                member.credits = credits - 1
        cost = member.vids.process_classified(classified, when)
        if gated and self.fault_plan is not None and self.fault_plan.slowdowns:
            factor = self.fault_plan.slow_factor(index, when)
            if factor > 1.0:
                # A degraded member takes longer per packet: inflate the
                # charged service time so backlog/shedding/backpressure
                # all see the slowdown.
                extra = cost * (factor - 1.0)
                member.vids.metrics.cpu_time += extra
                member.vids._busy_until += extra
                cost += extra
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

    def _drain_queue(self, member: ShardMember, now: float,
                     force: bool = False) -> float:
        total = 0.0
        while member.queue:
            if not force and member.credits is not None:
                if member.credits <= 0:
                    break
                member.credits -= 1
            classified, when = member.queue.popleft()
            self.metrics.packets_requeued += 1
            total += self.dispatch(member.index, classified, when, True)
        return total

    def _replenish(self, member: ShardMember, now: float) -> None:
        """Credit grant: only while the member is keeping up."""
        if member.vids.backlog(now) <= self.config.credit_backlog_limit:
            member.credits = self.config.credit_limit
        if member.queue:
            self._drain_queue(member, now)

    # -- checkpointing --------------------------------------------------------

    def take_checkpoint(self, member: ShardMember) -> ShardCheckpoint:
        """Snapshot one member's analysis state (incrementally)."""
        vids = member.vids
        factbase = vids.factbase
        previous = member.checkpoint
        prev_calls = previous.calls if previous is not None else {}
        prev_versions = previous.call_versions if previous is not None else {}
        calls: Dict[str, Dict[str, Any]] = {}
        versions: Dict[str, int] = {}
        for call_id, record in factbase.records.items():
            version = record.system.deliveries
            if prev_versions.get(call_id) == version:
                # Unchanged since the last checkpoint: reuse the snapshot,
                # refreshing only the fields that move outside firings.
                snapshot = dict(prev_calls[call_id])
                snapshot["last_activity"] = record.last_activity
                snapshot["deletion_scheduled"] = record.deletion_scheduled
                snapshot["delete_at"] = record.delete_at
            else:
                snapshot = factbase.checkpoint_call(record)
            calls[call_id] = snapshot
            versions[call_id] = version
        trackers = stray = tracker_version = None
        if member.index == 0:
            # The trackers count their own changes, and the stray-key set
            # only grows; RTP-dominated traffic moves none of them, so
            # steady-state checkpoints reuse the previous tracker snapshot.
            tracker_version = (vids.flood_tracker.version,
                               vids.source_flood_tracker.version,
                               vids.orphan_tracker.version,
                               len(vids.engine._stray_keys))
            if (previous is not None
                    and previous.tracker_version == tracker_version):
                trackers = previous.trackers
                stray = previous.stray_keys
            else:
                trackers = self._checkpoint_trackers(vids)
                stray = set(vids.engine._stray_keys)
        member.packet_seq += member.packets_since_checkpoint
        checkpoint = ShardCheckpoint(
            shard=member.index,
            taken_at=self.clock_now(),
            packet_seq=member.packet_seq,
            calls=calls,
            call_versions=versions,
            quarantined=dict(factbase.quarantined),
            quarantined_media=dict(factbase.quarantined_media),
            metrics=_snapshot_metrics(vids.metrics),
            alerts=list(vids.alert_manager.alerts),
            alert_counts=Counter(vids.alert_manager.counts),
            deviation_keys=set(vids.engine._deviation_keys),
            malformed_windows=_copy_windows(vids._malformed_windows),
            busy_until=vids._busy_until,
            shedding=vids._shedding,
            shed_started=vids._shed_started,
            trackers=trackers,
            stray_keys=stray,
            tracker_version=tracker_version,
        )
        member.checkpoint = checkpoint
        member.packets_since_checkpoint = 0
        self.metrics.checkpoints_taken += 1
        self.metrics.calls_checkpointed += len(calls)
        return checkpoint

    def _checkpoint_trackers(self, vids: Vids) -> Dict[str, Any]:
        flood = vids.flood_tracker
        source_flood = vids.source_flood_tracker
        orphan = vids.orphan_tracker
        return {
            "flood": {target: instance.snapshot()
                      for target, instance in flood.machines.items()},
            "source_flood": {target: instance.snapshot()
                             for target, instance
                             in source_flood.machines.items()},
            "orphan": {destination: instance.snapshot()
                       for destination, instance in orphan.machines.items()},
            "orphan_flagged": set(orphan._unsolicited_flagged),
            "versions": (flood.version, source_flood.version, orphan.version),
        }

    # -- restore --------------------------------------------------------------

    def _build_member_vids(self, index: int) -> Vids:
        """A fresh Vids wired exactly as :class:`ShardedVids` wires shards."""
        sharded = self.sharded
        kwargs: Dict[str, Any] = {}
        if index > 0:
            first = sharded.shards[0]
            kwargs = dict(flood_tracker=first.flood_tracker,
                          source_flood_tracker=first.source_flood_tracker,
                          orphan_tracker=first.orphan_tracker)
        vids = Vids(config=sharded.config, clock_now=sharded.clock_now,
                    timer_scheduler=sharded.timer_scheduler, obs=sharded.obs,
                    register_metrics=False, **kwargs)
        if index > 0:
            vids.engine._stray_keys = sharded.shards[0].engine._stray_keys
        vids.factbase.on_media_route = partial(
            sharded._media_route_changed, index)
        return vids

    def _apply_checkpoint(self, member: ShardMember,
                          checkpoint: ShardCheckpoint) -> None:
        """Replace a member's Vids with one rebuilt from a checkpoint."""
        vids = self._build_member_vids(member.index)
        _restore_metrics(vids.metrics, checkpoint.metrics)
        vids.alert_manager.alerts = list(checkpoint.alerts)
        vids.alert_manager.counts.update(checkpoint.alert_counts)
        vids.engine._deviation_keys = set(checkpoint.deviation_keys)
        vids.factbase.quarantined.update(checkpoint.quarantined)
        vids.factbase.quarantined_media.update(checkpoint.quarantined_media)
        vids._malformed_windows = _copy_windows(checkpoint.malformed_windows)
        vids._busy_until = checkpoint.busy_until
        vids._shedding = checkpoint.shedding
        vids._shed_started = checkpoint.shed_started
        # Restoring each call re-fires the media-route hooks, so the
        # facade's routing table re-homes the RTP along with the call.
        for snapshot in checkpoint.calls.values():
            vids.factbase.restore_call(snapshot)
        if member.index == 0 and checkpoint.trackers is not None:
            self._restore_trackers(vids, checkpoint)
        self.sharded.shards[member.index] = vids
        member.vids = vids
        # The rebuilt state has seen nothing since its checkpoint.
        member.packet_seq = checkpoint.packet_seq
        member.packets_since_checkpoint = 0
        if member.index == 0:
            self._rewire_shared_trackers(vids)
        else:
            vids.engine._stray_keys = self.sharded.shards[0].engine._stray_keys
        if self.obs is not None and self.obs.registry is not None:
            # The get-or-create registry re-binds every per-shard series
            # to the replacement instance (set_function replaces).
            vids._register_metrics(self.obs.registry,
                                   {"shard": str(member.index)})

    def _restore_trackers(self, vids: Vids,
                          checkpoint: ShardCheckpoint) -> None:
        trackers = checkpoint.trackers
        assert trackers is not None
        for target, snapshot in trackers["flood"].items():
            vids.flood_tracker.machine_for(target).restore(snapshot)
        for target, snapshot in trackers["source_flood"].items():
            vids.source_flood_tracker.machine_for(target).restore(snapshot)
        orphan = vids.orphan_tracker
        for destination, snapshot in trackers["orphan"].items():
            orphan.machine_for(destination).restore(snapshot)
        orphan._unsolicited_flagged = set(trackers["orphan_flagged"])
        # Last: rebuilding the tables above counted as changes.
        (vids.flood_tracker.version, vids.source_flood_tracker.version,
         orphan.version) = trackers["versions"]
        stray = vids.engine._stray_keys
        stray.clear()
        if checkpoint.stray_keys:
            stray.update(checkpoint.stray_keys)

    def _rewire_shared_trackers(self, first: Vids) -> None:
        """Point the siblings at the restored first member's trackers."""
        for shard in self.sharded.shards[1:]:
            shard.flood_tracker = first.flood_tracker
            shard.source_flood_tracker = first.source_flood_tracker
            shard.orphan_tracker = first.orphan_tracker
            shard.distributor.flood_tracker = first.flood_tracker
            shard.distributor.source_flood_tracker = first.source_flood_tracker
            shard.distributor.orphan_tracker = first.orphan_tracker
            shard.engine._stray_keys = first.engine._stray_keys

    # -- migration & rebalancing ----------------------------------------------

    def migrate_call(self, source_index: int, target_index: int,
                     call_id: str) -> bool:
        """Hand one live call to a sibling by checkpoint transfer.

        Restore-then-evict ordering makes the RTP re-home atomic: the
        target's restore re-indexes the media keys (facade routes repoint
        to the target), so the source's eviction-time retirement no-ops
        (:meth:`ShardedVids._media_route_changed` only deletes a route
        still owned by the retiring shard).
        """
        if source_index == target_index:
            return False
        source = self.members[source_index].vids
        target = self.members[target_index].vids
        record = source.factbase.get(call_id)
        if record is None:
            return False
        snapshot = source.factbase.checkpoint_call(record)
        target.factbase.restore_call(snapshot)
        source.factbase.evict(call_id)
        self.call_routes[call_id] = target_index
        self.metrics.calls_migrated += 1
        if self._trace is not None:
            self._trace.emit("shard-migrate", self.clock_now(),
                             call_id=call_id, source=source_index,
                             target=target_index)
        return True

    def rebalance(self, source_index: int,
                  target_index: Optional[int] = None,
                  max_calls: Optional[int] = None) -> int:
        """Drain part of a hot member's call load onto siblings."""
        source = self.members[source_index].vids
        call_ids = list(source.factbase.records)
        if max_calls is None:
            max_calls = max(1, int(len(call_ids)
                                   * self.config.rebalance_fraction))
        moved = 0
        for call_id in call_ids[:max_calls]:
            target = (target_index if target_index is not None
                      else self._least_loaded(exclude=source_index))
            if target is None:
                break
            if self.migrate_call(source_index, target, call_id):
                moved += 1
        if moved:
            self.metrics.migrations += 1
        return moved

    def _least_loaded(self, exclude: int) -> Optional[int]:
        now = self.clock_now()
        candidates = [m for m in self.members
                      if m.index != exclude and self._reachable(m, now)]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda m: (m.vids.factbase.active_calls,
                                  m.vids.backlog(now))).index

    def _prune_call_routes(self) -> None:
        """Drop migration overrides whose call has since been deleted."""
        if not self.call_routes:
            return
        for call_id in list(self.call_routes):
            index = self.call_routes[call_id]
            vids = self.members[index].vids
            if (call_id not in vids.factbase.records
                    and call_id not in vids.factbase.quarantined):
                del self.call_routes[call_id]

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
    dispatch, which applies fault reachability, credits, and admission
    queues before the member's ``process_classified``.
    """

    def __init__(
        self,
        shards: int = 4,
        sim: Optional[Simulator] = None,
        config: VidsConfig = DEFAULT_CONFIG,
        clock_now: Optional[Callable[[], float]] = None,
        timer_scheduler: Optional[Callable] = None,
        obs: Optional["Observability"] = None,
        cluster: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
        fault_plan: Optional[ShardFaultPlan] = None,
        default_shard: int = 0,
    ):
        super().__init__(
            shards=shards, sim=sim, config=config, clock_now=clock_now,
            timer_scheduler=timer_scheduler, obs=obs,
            default_shard=default_shard)
        self.supervisor = ShardSupervisor(self, cluster,
                                          fault_plan=fault_plan)
        self.cluster_config = cluster
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
                         len(member.queue),
                         "-" if member.credits is None else member.credits))
        table = format_table(
            ("member", "state", "checkpoint", "since-ckpt", "queued",
             "credits"), rows)
        cluster = self.supervisor.metrics
        return (f"{base}\n\n=== supervision "
                f"(members up: {self.supervisor.members_up}"
                f"/{self.n_shards}) ===\n{table}\n"
                f"checkpoints: {cluster.checkpoints_taken}  "
                f"restarts: {cluster.members_restarted}  "
                f"lost packets: {cluster.lost_packets}  "
                f"requeued: {cluster.packets_requeued}  "
                f"migrated: {cluster.calls_migrated}")
