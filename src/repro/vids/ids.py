"""The vids facade: an online intrusion detection system for VoIP.

Wires the architecture of the paper's Figure 3 — Packet Classifier, Event
Distributor, Call State Fact Base, Attack Scenarios, Analysis Engine — into
one object that plugs into a :class:`~repro.netsim.inline.InlineDevice` as
its packet processor.  ``process`` returns the CPU service time charged for
each packet, which is how the online placement induces the call-setup and
RTP delays measured in Section 7.

The facade can also run *offline* (no simulator): pass ``clock_now``/
``timer_scheduler`` from a :class:`~repro.efsm.system.ManualClock` and feed
datagrams directly — handy for unit tests and trace replay.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional)

from ..efsm.errors import DefinitionError
from ..netsim.engine import Simulator
from ..netsim.packet import Datagram
from ..rtp.packet import RtpParseError
from ..rtp.rtcp import RtcpParseError
from ..sip.errors import SipError
from .alerts import Alert, AlertManager, AttackType
from .classifier import PacketClassifier, PacketKind
from .config import DEFAULT_CONFIG, VidsConfig
from .distributor import EventDistributor
from .engine import AnalysisEngine
from .factbase import CallStateFactBase
from .ingest import ingest
from .metrics import VidsMetrics
from .patterns.cross_call import CrossCallTrackers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Observability

__all__ = ["Vids"]

#: How many packets between opportunistic garbage-collection sweeps.
_GC_EVERY = 5000

#: Cap on distinct sources tracked by the malformed-rate detector; beyond
#: this, stale windows are pruned so a spoofed-source fuzzing campaign
#: cannot grow the table without bound.
_MAX_MALFORMED_SOURCES = 4096


class Vids:
    """VoIP intrusion detection through interacting protocol state machines."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        config: VidsConfig = DEFAULT_CONFIG,
        clock_now: Optional[Callable[[], float]] = None,
        timer_scheduler: Optional[Callable] = None,
        obs: Optional["Observability"] = None,
        trackers: Optional[CrossCallTrackers] = None,
        register_metrics: bool = True,
    ):
        """Build the pipeline.

        The cross-call state (INVITE flood per target and per claimed
        source, orphan media, stray-request dedup) defaults to this
        pipeline's own; a sharded deployment passes the one object all its
        shards share, so rate patterns that span calls keep seeing the
        aggregate stream (:class:`~repro.vids.sharding.ShardedVids`).
        ``register_metrics`` lets that facade suppress the per-instance
        registry registration and export per-shard labelled families
        instead.
        """
        if sim is not None:
            clock_now = lambda: sim.now  # noqa: E731 - simple adapter
            timer_scheduler = lambda delay, fn: sim.schedule(delay, fn)  # noqa: E731 - simple adapter
        if clock_now is None or timer_scheduler is None:
            raise ValueError("Vids needs a sim, or clock_now + timer_scheduler")
        self.sim = sim
        self.config = config
        self.clock_now = clock_now
        self.timer_scheduler = timer_scheduler

        #: Observability bundle (trace bus + metrics registry + profiler).
        #: Every trace hook below is an ``is not None`` guard, so running
        #: without one costs nothing beyond the checks.
        self.obs = obs
        self._trace = obs.trace if obs is not None else None

        self.metrics = VidsMetrics()
        self.alert_manager = AlertManager()
        self.classifier = PacketClassifier()
        self.factbase = CallStateFactBase(config, clock_now, timer_scheduler,
                                          self.metrics, trace=self._trace)
        self.trackers = trackers if trackers is not None \
            else CrossCallTrackers(config, clock_now,
                                   engine=lambda: self.engine)
        self.engine = AnalysisEngine(self.alert_manager, clock_now,
                                     self.trackers.first_stray,
                                     trace=self._trace)
        self.factbase.on_result = self._on_result
        if self._trace is not None:
            self.alert_manager.on_alert = self._trace_alert
        self.distributor = EventDistributor(
            config, self.factbase, self.engine, self.trackers, clock_now,
            trace=self._trace)
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            # Bound once, so the packet path carries no profiler branch.
            self.classifier.classify = profiler.timed(
                "classify", self.classifier.classify)
            self.distributor.distribute = profiler.timed(
                "distribute", self.distributor.distribute)
            self.distributor.inject = profiler.timed(
                "fire", self.distributor.inject)
        if register_metrics and obs is not None and obs.registry is not None:
            self._register_metrics(obs.registry)

        # -- robustness state (docs/ROBUSTNESS.md) ---------------------------
        #: Mirror of the inline device's single-server queue: the absolute
        #: time the analysis CPU works off everything charged so far.  Also
        #: maintained offline, where no InlineDevice exists.
        self._busy_until = 0.0
        self._shedding = False
        self._shed_started = 0.0
        #: Per-source malformed-rate windows: src_ip -> [start, count, alerted].
        self._malformed_windows: Dict[str, list] = {}

    # -- PacketProcessor interface --------------------------------------------

    def process(self, datagram: Datagram, now: float) -> float:
        """Inspect one packet; returns the CPU service time it cost.

        Survivability contract: whatever bytes arrive, this never raises
        (with ``config.crash_containment`` on).  An unexpected exception
        quarantines the offending call and is reported as an
        ``ids-internal`` alert; the packet is still forwarded by the
        inline device (fail-open).
        """
        return ingest(self, ((datagram, now),), None, self.process_classified)

    @property
    def default_vids(self) -> "Vids":
        """Where :func:`~repro.vids.ingest.ingest` accounts what no call
        owns; a sharding facade answers with its first shard."""
        return self

    def contain_classifier_error(self, datagram: Datagram, exc: Exception,
                                 now: float) -> float:
        """Crash containment, layer 1: account a classifier exception.

        Called by :func:`~repro.vids.ingest.ingest` on ``default_vids``: a
        facade that classifies centrally accounts it on its first shard.
        """
        self.metrics.packets_processed += 1
        self.metrics.internal_errors += 1
        self.engine.note_internal_error(
            None, exc, src_ip=datagram.src.ip, dst_ip=datagram.dst.ip)
        self.metrics.other_packets += 1
        return self._finish(self.config.other_processing_cost, now)

    def process_classified(self, classified, now: float) -> float:
        """Analyse an already-classified packet; returns its CPU cost.

        This is the post-classifier tail of :meth:`process` — the entry
        point used by :class:`~repro.vids.sharding.ShardedVids`, which
        classifies once in the facade and routes the classified packet to
        the owning shard.
        """
        datagram = classified.datagram
        self.metrics.packets_processed += 1
        if classified.kind is PacketKind.SIP:
            self.metrics.sip_messages += 1
            cost = self.config.sip_processing_cost
        elif classified.kind is PacketKind.RTP:
            self.metrics.rtp_packets += 1
            cost = self.config.rtp_processing_cost
        elif classified.kind is PacketKind.RTCP:
            self.metrics.rtcp_packets += 1
            cost = self.config.rtp_processing_cost
        elif classified.kind is PacketKind.KEEPALIVE:
            # RFC 5626 NAT keepalive on the SIP flow: benign by design, so
            # it must never feed the malformed-rate (fuzzing) accounting.
            self.metrics.keepalive_packets += 1
            cost = self.config.other_processing_cost
        elif classified.kind is PacketKind.MALFORMED_SIP:
            self.metrics.malformed_packets += 1
            cost = self.config.sip_processing_cost
        else:
            self.metrics.other_packets += 1
            cost = self.config.other_processing_cost

        if classified.malformed is not None:
            self._note_malformed(classified.malformed, datagram.src.ip)

        trace = self._trace
        if trace is not None:
            sip = classified.sip
            trace.emit(
                "classify", now,
                call_id=sip.call_id if sip is not None else None,
                packet_id=datagram.packet_id,
                verdict=classified.kind.value,
                malformed=classified.malformed,
                src=f"{datagram.src.ip}:{datagram.src.port}",
                dst=f"{datagram.dst.ip}:{datagram.dst.port}")

        if (self._shedding
                and classified.kind in (PacketKind.RTP, PacketKind.RTCP)):
            # Signaling-only mode: media skips deep inspection and is
            # forwarded at classification cost so the backlog can drain.
            self.metrics.packets_shed += 1
            cost = self.config.shed_processing_cost
        else:
            try:
                self.distributor.distribute(classified, now)
            except (SipError, RtpParseError, RtcpParseError):
                # Wire-parseable but semantically corrupted (e.g. a mangled
                # URI or Via discovered during event extraction): malformed
                # *input*, not an IDS bug — account it, never quarantine.
                kinds = {PacketKind.RTP: "rtp", PacketKind.RTCP: "rtcp"}
                self._note_malformed(kinds.get(classified.kind, "sip"),
                                     datagram.src.ip)
            except Exception as exc:  # crash containment, layer 2
                if not self.config.crash_containment:
                    raise
                self._contain(classified, exc)

        if self.metrics.packets_processed % _GC_EVERY == 0:
            self.factbase.collect_garbage()
        return self._finish(cost, now)

    def process_batch(self, items, clock=None) -> float:
        """Analyse a time-ordered batch of ``(datagram, time)`` pairs.

        The batched ingestion path (trace replay, the live tap, offline
        CLI workloads): the single pipeline is the one-shard case of
        :func:`~repro.vids.ingest.ingest`, which documents the clock and
        timestamp-clamp contract.  Returns the total CPU cost charged.
        """
        return ingest(self, items, clock, self.process_classified)

    # -- crash containment ----------------------------------------------------

    def _contain(self, classified, exc: Exception) -> None:
        """Quarantine the call whose machines raised; never propagate."""
        self.metrics.internal_errors += 1
        datagram = classified.datagram
        call_id: Optional[str] = None
        if classified.sip is not None:
            call_id = classified.sip.call_id
        elif classified.kind is PacketKind.RTP:
            match = self.factbase.media_index.get(
                (datagram.dst.ip, datagram.dst.port))
            if match is not None:
                call_id = match[0].call_id
        if call_id:
            self.factbase.quarantine(call_id)
        self.engine.note_internal_error(
            call_id, exc, src_ip=datagram.src.ip, dst_ip=datagram.dst.ip)

    # -- malformed-rate (protocol fuzzing) ------------------------------------

    def _note_malformed(self, protocol: str, src_ip: str) -> None:
        if protocol == "sip":
            self.metrics.malformed_sip += 1
        elif protocol == "rtcp":
            self.metrics.malformed_rtcp += 1
        else:
            self.metrics.malformed_rtp += 1
        now = self.clock_now()
        window = self._malformed_windows.get(src_ip)
        if window is None or now - window[0] > self.config.malformed_rate_window:
            window = [now, 0, False]
            if len(self._malformed_windows) >= _MAX_MALFORMED_SOURCES:
                self._prune_malformed_windows(now)
            self._malformed_windows[src_ip] = window
        window[1] += 1
        if not window[2] and window[1] >= self.config.malformed_rate_threshold:
            window[2] = True
            self.engine.note_fuzzing(src_ip, window[1],
                                     self.config.malformed_rate_window)

    def _prune_malformed_windows(self, now: float) -> None:
        horizon = self.config.malformed_rate_window
        stale = [src for src, window in self._malformed_windows.items()
                 if now - window[0] > horizon]
        for src in stale:
            del self._malformed_windows[src]

    # -- overload shedding ----------------------------------------------------

    def _finish(self, cost: float, now: float) -> float:
        """Charge ``cost``, update the backlog mirror, manage shed state."""
        self.metrics.cpu_time += cost
        self._busy_until = max(self._busy_until, now) + cost
        backlog = self._busy_until - now
        config = self.config
        if not self._shedding and backlog >= config.shed_high_watermark:
            self._shedding = True
            self._shed_started = now
            self.metrics.shed_events += 1
            self.engine.note_overload(backlog, config.shed_high_watermark)
            if self._trace is not None:
                self._trace.emit("shed-start", now, backlog=backlog,
                                 watermark=config.shed_high_watermark)
        elif self._shedding and backlog <= config.shed_low_watermark:
            self._shedding = False
            self.metrics.shed_intervals.append((self._shed_started, now))
            if self._trace is not None:
                self._trace.emit("shed-stop", now, backlog=backlog,
                                 since=self._shed_started)
        return cost

    def flush_shed_interval(self, now: Optional[float] = None) -> None:
        """Close the books on a still-open shedding interval.

        ``shed_intervals`` is appended on shed-*stop*; a run that ends (or
        a snapshot taken) while still shedding would silently lose the
        final interval.  This appends ``(start, now)`` for the open
        interval and restarts it at ``now``, so repeated flushes stay
        idempotent, intervals stay contiguous, and the eventual real
        shed-stop doesn't double-count.
        """
        if not self._shedding:
            return
        current = self.clock_now() if now is None else now
        if current > self._shed_started:
            self.metrics.shed_intervals.append((self._shed_started, current))
            self._shed_started = current

    @property
    def shedding(self) -> bool:
        """True while RTP deep inspection is shed (signaling-only mode)."""
        return self._shedding

    def backlog(self, now: Optional[float] = None) -> float:
        """Seconds of unworked analysis CPU time (the shedding signal)."""
        current = self.clock_now() if now is None else now
        return max(0.0, self._busy_until - current)

    # -- checkpoint / restore (repro.vids.cluster) -------------------------------

    def snapshot(self, previous: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, Any]:
        """Serializable copy of this pipeline's analysis state.

        Each part snapshots itself, carrying over from ``previous`` (the
        snapshot taken last time) what has not changed since.  The
        cross-call trackers are not in it: they belong to the deployment,
        which checkpoints them once (:mod:`repro.vids.cluster`).  ``spec``
        names the machines the state belongs to.
        """
        previous = previous or {}
        return {
            "spec": self.factbase.spec.digest,
            "factbase": self.factbase.snapshot(previous.get("factbase")),
            "metrics": self.metrics.snapshot(previous.get("metrics")),
            "alerts": self.alert_manager.snapshot(previous.get("alerts")),
            "malformed_windows": {
                src: list(window)
                for src, window in self._malformed_windows.items()},
            "busy_until": self._busy_until,
            "shedding": self._shedding,
            "shed_started": self._shed_started,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Refill a fresh pipeline from a :meth:`snapshot` taken under the
        same spec (another spec's states and variables are not these)."""
        if snapshot["spec"] != self.factbase.spec.digest:
            raise DefinitionError(
                f"checkpoint taken under spec {snapshot['spec'][:12]}, this "
                f"pipeline runs {self.factbase.spec.digest[:12]}")
        self.metrics.restore(snapshot["metrics"])
        self.alert_manager.restore(snapshot["alerts"])
        self.factbase.restore(snapshot["factbase"])
        self._malformed_windows = {
            src: list(window)
            for src, window in snapshot["malformed_windows"].items()}
        self._busy_until = snapshot["busy_until"]
        self._shedding = snapshot["shedding"]
        self._shed_started = snapshot["shed_started"]

    # -- call lifecycle ---------------------------------------------------------

    def _on_result(self, record, result) -> None:
        """Fact-base hook: analyse a firing, then manage record lifetime.

        Untraced, only observable firings arrive (attacks, deviations and
        entries into a final state, timer expirations included): a call
        only becomes fully final when the RTP machine's in-flight timer T
        fires, which may happen long after the last packet.  Its machines
        can only all become final at a firing that moves one of them into
        a final state, which both paths see; that firing schedules the
        deletion once and for all.  Only state changes are checked, so the
        traced path, which sees every firing, skips its self-loops too.
        """
        if self._trace is not None:
            self._trace.emit("fire", result.time, call_id=record.call_id,
                             machine=result.machine, event=result.event.name,
                             channel=result.event.channel,
                             from_state=result.from_state,
                             to_state=result.to_state,
                             deviation=result.deviation, attack=result.attack)
        self.engine.handle_result(record, result)
        if result.to_state != result.from_state:
            self._maybe_reap(record)

    def _maybe_reap(self, record) -> None:
        """Schedule deletion once a call's machines all reach final states."""
        if record.deletion_scheduled or not record.system.all_final:
            return
        record.deletion_scheduled = True
        record.delete_at = self.clock_now() + self.config.closed_record_linger
        call_id = record.call_id
        self.timer_scheduler(
            self.config.closed_record_linger,
            lambda: self.factbase.delete(call_id))

    # -- observability ---------------------------------------------------------

    def _trace_alert(self, alert: Alert) -> None:
        """AlertManager hook: put every raised alert on the call timeline."""
        self._trace.emit("alert", alert.time, call_id=alert.call_id,
                         attack_type=alert.attack_type.value,
                         machine=alert.machine, state=alert.state,
                         source=alert.source, destination=alert.destination,
                         detail=dict(alert.detail))

    def _register_metrics(self, registry,
                          labels: Optional[Dict[str, str]] = None) -> None:
        """Expose IDS counters/gauges through the obs metrics registry.

        Everything is callback-backed: the hot path keeps its bare ``+=``
        increments and the registry reads live values at collect time.
        With ``labels`` (``{"shard": "3"}``) every family carries those
        labelnames and this instance backs one labelled child — how a
        sharded deployment exports per-shard series under the same names.
        The registry is get-or-create and ``set_function`` replaces, so
        registering again re-points the series: how a supervisor binds
        them to a member restarted from checkpoint (repro.vids.cluster).
        """
        labels = labels or {}
        self.metrics.register_with(registry, labels=labels)
        for name, help_text, read in (
                ("vids_active_calls",
                 "Calls currently monitored in the fact base",
                 lambda: self.factbase.active_calls),
                ("vids_backlog_seconds",
                 "Unworked analysis CPU time (the shedding signal)",
                 self.backlog),
                ("vids_shedding",
                 "1 while RTP deep inspection is shed (signaling-only mode)",
                 lambda: 1 if self._shedding else 0)):
            registry.gauge(name, help_text, labelnames=tuple(labels)).labels(
                **labels).set_function(read)
        alerts = registry.counter(
            "vids_alerts_total", "Alerts raised, by attack type",
            labelnames=("attack_type", *labels))
        for attack_type in AttackType:
            alerts.labels(
                attack_type=attack_type.value, **labels,
            ).set_function(partial(
                self.alert_manager.counts.__getitem__, attack_type))

    # -- inspection ----------------------------------------------------------

    @property
    def alerts(self) -> List[Alert]:
        return self.alert_manager.alerts

    def alert_count(self, attack_type: Optional[AttackType] = None) -> int:
        return self.alert_manager.count(attack_type)

    @property
    def active_calls(self) -> int:
        return self.factbase.active_calls

    def summary(self) -> dict:
        self.flush_shed_interval()
        summary = self.metrics.summary()
        summary["alerts"] = {
            attack_type.value: count
            for attack_type, count in self.alert_manager.counts.items()
        }
        summary["active_calls"] = self.active_calls
        return summary

    def report(self) -> str:
        """A human-readable situation report (traffic, state, alerts)."""
        from ..analysis.report import format_table

        self.flush_shed_interval()
        metrics = self.metrics
        traffic = format_table(("traffic", "count"), [
            ("packets processed", metrics.packets_processed),
            ("SIP messages", metrics.sip_messages),
            ("RTP packets", metrics.rtp_packets),
            ("RTCP packets", metrics.rtcp_packets),
            ("malformed SIP", metrics.malformed_packets),
            ("other", metrics.other_packets),
        ])
        calls = format_table(("calls", "count"), [
            ("created", metrics.calls_created),
            ("deleted", metrics.calls_deleted),
            ("active now", self.active_calls),
            ("peak concurrent", metrics.peak_concurrent_calls),
            ("peak state bytes", metrics.peak_state_bytes),
        ])
        robustness = format_table(("robustness", "count"), [
            ("malformed SIP/RTP/RTCP",
             f"{metrics.malformed_sip}/{metrics.malformed_rtp}"
             f"/{metrics.malformed_rtcp}"),
            ("SDP parse failures", metrics.sdp_parse_failures),
            ("internal errors contained", metrics.internal_errors),
            ("calls quarantined", metrics.calls_quarantined),
            ("quarantined drops", metrics.quarantined_drops),
            ("packets shed", metrics.packets_shed),
            ("shedding now", "yes" if self._shedding else "no"),
        ])
        if self.alerts:
            alert_rows = [
                (f"{alert.time:.3f}", alert.attack_type.value,
                 alert.call_id or "-", alert.source or "-",
                 alert.detail.get("scenario", "-"))
                for alert in self.alerts
            ]
            alerts = format_table(
                ("time", "type", "call", "source", "scenario"), alert_rows)
        else:
            alerts = "no alerts"
        return (f"=== vids report (t={self.clock_now():.3f}s) ===\n"
                f"{traffic}\n\n{calls}\n\n{robustness}\n\nalerts:\n{alerts}")
