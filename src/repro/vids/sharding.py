"""Shard the vids pipeline across independent per-call analysis shards.

The paper deploys vids inline on the enterprise perimeter, one pipeline
for every call.  Per-call EFSM systems share no state across calls, so the
pipeline shards cleanly by Call-ID: :class:`ShardedVids` consistent-hashes
SIP traffic onto N independent :class:`~repro.vids.ids.Vids` shards and
exposes the same ``process``/alert/metrics surface as one of them
(docs/SCALING.md).

The one wrinkle is media: RTP/RTCP is correlated by negotiated
``(addr, port)`` media endpoint, not by Call-ID.  The facade therefore
keeps a **media routing table** mapping media keys to the owning shard,
maintained through the narrow ``CallStateFactBase.on_media_route``
callback each shard fires when its distributor indexes or retires an SDP
endpoint.  Media that matches no route ("orphan" media — the input of the
paper's Figure-6 standalone machines) falls to shard 0, where the
cross-call trackers' alerts land too.

Cross-call state (INVITE flood per target, DRDoS per claimed source,
orphan-media tracking, stray-request dedup) is one
:class:`~repro.vids.patterns.cross_call.CrossCallTrackers` built here and
handed to every shard, which is what makes the correctness bar hold: a
seeded attack scenario produces the identical alert multiset sharded and
unsharded, because packets are analysed in global arrival order by the
one ingest loop (:func:`~repro.vids.ingest.ingest`) and only the
post-classifier tail runs on the owning shard.
:meth:`ShardedVids.shard_index` is the one routing rule; the supervision
tier (:mod:`repro.vids.cluster`) uses it too.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple)
from zlib import crc32

from ..netsim.engine import Simulator
from ..netsim.packet import Datagram
from .alerts import Alert, AlertManager, AttackType
from .classifier import PacketClassifier, PacketKind
from .config import DEFAULT_CONFIG, VidsConfig
from .factbase import MediaKey
from .ids import Vids
from .ingest import ingest
from .metrics import VidsMetrics
from .patterns.cross_call import CrossCallTrackers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Observability

__all__ = ["ShardedVids", "shard_for_call"]

#: Bound once: an enum member lookup goes through the metaclass and costs
#: several plain loads, and the routing rule runs once per packet.
_SIP, _RTP, _RTCP = PacketKind.SIP, PacketKind.RTP, PacketKind.RTCP


def shard_for_call(call_id: str, n_shards: int) -> int:
    """Consistent shard assignment for a Call-ID.

    Uses CRC-32, not Python's ``hash()``: the builtin is salted per
    process (PYTHONHASHSEED), and the assignment must agree across
    processes and replays to be a routing key.
    """
    return crc32(call_id.encode("utf-8", "surrogateescape")) % n_shards


class ShardedVids:
    """N independent Vids shards behind the single-pipeline interface.

    Satisfies the same ``PacketProcessor`` protocol as :class:`Vids`, so
    it plugs into an :class:`~repro.netsim.inline.InlineDevice`, the
    scenario runner (``ScenarioParams(shards=N)``), and trace replay
    unchanged.  Aggregate ``alerts``/``metrics``/``summary`` views merge
    the per-shard state; the obs registry (when attached) carries one
    labelled series per shard under the usual ``vids_*`` metric names,
    and all shards publish to the one shared ``TraceBus``.
    """

    def __init__(
        self,
        shards: int = 4,
        sim: Optional[Simulator] = None,
        config: VidsConfig = DEFAULT_CONFIG,
        clock_now: Optional[Callable[[], float]] = None,
        timer_scheduler: Optional[Callable] = None,
        obs: Optional["Observability"] = None,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if sim is not None:
            clock_now = lambda: sim.now  # noqa: E731 - simple adapter
            timer_scheduler = lambda delay, fn: sim.schedule(delay, fn)  # noqa: E731 - simple adapter
        if clock_now is None or timer_scheduler is None:
            raise ValueError(
                "ShardedVids needs a sim, or clock_now + timer_scheduler")
        self.config = config
        self.clock_now = clock_now
        self.timer_scheduler = timer_scheduler
        self.n_shards = shards
        self.obs = obs

        #: One classifier in the facade: packets are classified exactly
        #: once, then routed to the owning shard's post-classifier tail.
        self.classifier = PacketClassifier()
        if obs is not None and obs.profiler is not None:
            self.classifier.classify = obs.profiler.timed(
                "classify", self.classifier.classify)
        #: Media routing table: negotiated (addr, port) -> owning shard.
        self._media_routes: Dict[MediaKey, int] = {}
        #: Cross-call rate patterns watch the aggregate stream (and a
        #: foreign REGISTER's dedup key names no call to hash on), so
        #: every shard feeds this one object.  Its alerts go through the
        #: first shard's engine — the current one: a supervisor rebinds
        #: ``shards[0]`` when it restarts that member.
        self.trackers = CrossCallTrackers(
            config, clock_now, engine=lambda: self.shards[0].engine)
        self.shards: List[Vids] = [
            self.build_shard(index) for index in range(shards)]

        if obs is not None and obs.registry is not None:
            self._register_metrics(obs.registry)

    def build_shard(self, index: int) -> Vids:
        """A fresh shard wired into this facade: how the shards are built,
        and how a supervisor rebuilds one it restarts from checkpoint."""
        shard = Vids(config=self.config, clock_now=self.clock_now,
                     timer_scheduler=self.timer_scheduler, obs=self.obs,
                     trackers=self.trackers, register_metrics=False)
        shard.factbase.on_media_route = partial(
            self._media_route_changed, index)
        return shard

    # -- routing --------------------------------------------------------------

    def _media_route_changed(self, shard: int, key: MediaKey,
                             call_id: Optional[str]) -> None:
        """Fact-base callback: keep the media routing table in sync."""
        if call_id is not None:
            self._media_routes[key] = shard
        elif self._media_routes.get(key) == shard:
            del self._media_routes[key]

    def shard_index(self, classified) -> int:
        """Which shard owns a classified packet — the one routing rule.

        RTP/RTCP follows the media routing table and falls to shard 0 when
        no call negotiated its endpoint.  SIP with a Call-ID follows the
        consistent hash.  Everything else — Call-ID-less SIP, malformed
        SIP, keepalives, other — hashes on the source address, so
        stray-request handling stays deterministic and each source's
        malformed-rate (fuzzing) window accumulates on one shard, exactly
        as in the single pipeline.
        """
        kind = classified.kind
        if kind is _RTP or kind is _RTCP:
            # An Endpoint hashes and compares as the (ip, port) key.
            return self._media_routes.get(classified.datagram.dst, 0)
        if kind is _SIP:
            call_id = classified.sip.call_id
            if call_id:
                return shard_for_call(call_id, self.n_shards)
        return shard_for_call(classified.datagram.src.ip, self.n_shards)

    @property
    def default_vids(self) -> Vids:
        """Shard 0 accounts what no call owns; looked up on every access
        because a supervisor rebinds ``shards[i]`` when it restarts a
        member."""
        return self.shards[0]

    # -- PacketProcessor interface --------------------------------------------

    def _admit(self, index: int, classified, now: float) -> float:
        """The owning shard's post-classifier tail."""
        return self.shards[index].process_classified(classified, now)

    def process(self, datagram: Datagram, now: float) -> float:
        """Classify once, route to the owning shard; returns the CPU cost."""
        return ingest(self, ((datagram, now),), None, self._admit,
                      self.shard_index)

    def process_batch(self, items: Iterable[Tuple[Datagram, float]],
                      clock=None) -> float:
        """Analyse a time-ordered batch of ``(datagram, time)`` pairs.

        Global arrival order is preserved across shards (required for
        alert-multiset equivalence with one Vids); see
        :func:`~repro.vids.ingest.ingest` for the clock contract.
        """
        return ingest(self, items, clock, self._admit, self.shard_index)

    # -- aggregation ----------------------------------------------------------

    @property
    def metrics(self) -> VidsMetrics:
        """Merged counters across shards.

        Counters sum exactly; the two peaks are summed per-shard peaks,
        an upper bound on the true aggregate high-water mark
        (:meth:`VidsMetrics.merged`).
        """
        return VidsMetrics.merged([shard.metrics for shard in self.shards])

    @property
    def alerts(self) -> List[Alert]:
        merged = [alert for shard in self.shards for alert in shard.alerts]
        merged.sort(key=lambda alert: alert.time)
        return merged

    @property
    def alert_manager(self) -> AlertManager:
        """A merged, read-only AlertManager view (rebuilt on access)."""
        view = AlertManager()
        view.restore(self.alerts)
        return view

    def alert_count(self, attack_type: Optional[AttackType] = None) -> int:
        return self.alert_manager.count(attack_type)

    @property
    def active_calls(self) -> int:
        return sum(shard.active_calls for shard in self.shards)

    @property
    def media_routes(self) -> Dict[MediaKey, int]:
        """Read-only snapshot of the media routing table."""
        return dict(self._media_routes)

    def flush_shed_interval(self, now: Optional[float] = None) -> None:
        for shard in self.shards:
            shard.flush_shed_interval(now)

    def collect_garbage(self) -> int:
        return sum(shard.factbase.collect_garbage() for shard in self.shards)

    def summary(self) -> dict:
        self.flush_shed_interval()
        summary = self.metrics.summary()
        summary["alerts"] = {
            attack_type.value: count
            for attack_type, count in self.alert_manager.counts.items()
        }
        summary["active_calls"] = self.active_calls
        summary["shards"] = self.n_shards
        summary["media_routes"] = len(self._media_routes)
        summary["per_shard_packets"] = [
            shard.metrics.packets_processed for shard in self.shards]
        return summary

    def report(self) -> str:
        """Per-shard traffic table plus the merged alert list."""
        from ..analysis.report import format_table

        self.flush_shed_interval()
        rows = []
        for index, shard in enumerate(self.shards):
            metrics = shard.metrics
            rows.append((str(index), metrics.packets_processed,
                         metrics.sip_messages, metrics.rtp_packets,
                         shard.active_calls, len(shard.alerts),
                         "yes" if shard.shedding else "no"))
        table = format_table(
            ("shard", "packets", "SIP", "RTP", "active", "alerts", "shedding"),
            rows)
        alerts = self.alerts
        if alerts:
            alert_rows = [
                (f"{alert.time:.3f}", alert.attack_type.value,
                 alert.call_id or "-", alert.source or "-")
                for alert in alerts
            ]
            alert_table = format_table(("time", "type", "call", "source"),
                                       alert_rows)
        else:
            alert_table = "no alerts"
        return (f"=== sharded vids report (t={self.clock_now():.3f}s, "
                f"{self.n_shards} shards) ===\n"
                f"{table}\n\nmedia routes: {len(self._media_routes)}\n\n"
                f"alerts:\n{alert_table}")

    # -- observability --------------------------------------------------------

    def _register_metrics(self, registry) -> None:
        """Per-shard labelled ``vids_*`` series plus facade-level gauges."""
        registry.gauge(
            "vids_shards", "Analysis shards behind the sharded facade",
        ).set_function(lambda: self.n_shards)
        registry.gauge(
            "vids_media_routes",
            "Negotiated media keys in the shard routing table",
        ).set_function(lambda: len(self._media_routes))
        for index, shard in enumerate(self.shards):
            shard._register_metrics(registry, {"shard": str(index)})
