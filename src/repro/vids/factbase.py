"""Call State Fact Base (paper Section 5).

"The vids component, Call State Fact Base, stores the control state and its
state variables and keeps track of the progress of state machines for each
ongoing call."  One :class:`CallRecord` holds the per-call communicating-
EFSM system (one SIP machine + one RTP machine sharing globals, the SIP
machine sending δs to the RTP machine).  "Once the calls have successfully
reached the final state, the corresponding protocol state machines will be
deleted from the memory" — deletion is driven by the IDS facade via
:meth:`delete`, which also samples the per-call memory cost for the
Section 7.3 accounting.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

from ..efsm.machine import FiringResult
from ..efsm.system import EfsmSystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import TraceBus
from .config import VidsConfig
from .metrics import VidsMetrics, estimate_state_bytes
from .spec import call_spec
from .sync import RTP_MACHINE, SIP_MACHINE

__all__ = ["CallRecord", "CallStateFactBase"]

MediaKey = Tuple[str, int]

#: Shared empty for records that have not negotiated media yet (most
#: records until the first SDP answer): only ever *replaced* by
#: ``refresh_media_index``, never mutated in place.
_NO_MEDIA_MAP: Dict[MediaKey, str] = {}


class CallRecord:
    """Monitoring state for one call."""

    #: One record per monitored call — ``__slots__`` for the same reason
    #: as :class:`~repro.efsm.machine.EfsmInstance`.
    __slots__ = (
        "call_id", "system", "created_at", "last_activity", "media_map",
        "deletion_scheduled", "delete_at", "deviation_keys",
        "_contribution", "_media_sig",
    )

    def __init__(self, call_id: str, system: EfsmSystem, created_at: float):
        self.call_id = call_id
        self.system = system
        self.created_at = created_at
        self.last_activity = created_at
        #: Negotiated media map as of the last index refresh (key -> dir):
        #: the record's own view of its entries in the fact base's index.
        self.media_map: Dict[MediaKey, str] = _NO_MEDIA_MAP
        self.deletion_scheduled = False
        #: Absolute time the scheduled linger-delete fires (None until the
        #: machines reach final states); checkpointed so a restored call's
        #: deletion timer re-arms at the original deadline.
        self.delete_at: Optional[float] = None
        #: ``(machine, state, event)`` of every deviation already alerted
        #: on, so a retransmission storm alerts once; allocated by the
        #: first deviation (None for the benign majority) and gone with
        #: the record.
        self.deviation_keys: Optional[set] = None
        #: (sip_bytes, rtp_bytes) as last measured into the fact-base
        #: running total.
        self._contribution: Tuple[int, int] = (0, 0)
        #: Raw media-global values as of the last index refresh, so the
        #: per-message refresh can bail out on a 4-tuple compare instead of
        #: rebuilding the endpoint dict.
        self._media_sig: Optional[Tuple[Any, Any, Any, Any]] = None

    @property
    def sip(self):
        return self.system.machines[SIP_MACHINE]

    @property
    def rtp(self):
        return self.system.machines[RTP_MACHINE]

    def media_endpoints(self) -> Dict[MediaKey, str]:
        """Negotiated media sinks -> stream direction label."""
        endpoints: Dict[MediaKey, str] = {}
        variables = self.system.globals
        offer_addr = variables.get("g_offer_addr")
        offer_port = variables.get("g_offer_port")
        if offer_addr and offer_port:
            endpoints[(str(offer_addr), int(offer_port))] = "to_caller"
        answer_addr = variables.get("g_answer_addr")
        answer_port = variables.get("g_answer_port")
        if answer_addr and answer_port:
            endpoints[(str(answer_addr), int(answer_port))] = "to_callee"
        return endpoints

    def sip_state_bytes(self) -> int:
        """Section 7.3 accounting: SIP control state incl. media info."""
        return (estimate_state_bytes(self.sip.variables.local)
                + estimate_state_bytes(self.system.globals))

    def rtp_state_bytes(self) -> int:
        """Section 7.3 accounting: RTP tracking state."""
        return estimate_state_bytes(self.rtp.variables.local)

    def state_bytes(self) -> int:
        return self.sip_state_bytes() + self.rtp_state_bytes()


class CallStateFactBase:
    """All per-call records plus the media index used to group RTP packets."""

    def __init__(
        self,
        config: VidsConfig,
        clock_now: Callable[[], float],
        timer_scheduler: Callable,
        metrics: Optional[VidsMetrics] = None,
        trace: Optional["TraceBus"] = None,
    ):
        self.config = config
        self.clock_now = clock_now
        self.timer_scheduler = timer_scheduler
        self.metrics = metrics or VidsMetrics()
        #: Call-scoped trace bus (None keeps the hot path untouched).
        self.trace = trace
        #: The deployment's verified, frozen machines (docs/SPECCHECK.md):
        #: every call record instantiates them, instances carry the state.
        self.spec = call_spec(config)
        #: Incremental state-byte accounting: running total plus the set of
        #: records whose contribution is stale (created or fired since the
        #: last total: every variable write happens in a firing).  Keeps
        #: :meth:`total_state_bytes` O(recently-active calls) instead of
        #: O(all calls) per sample.
        self._total_bytes = 0
        self._dirty: set = set()
        self.records: Dict[str, CallRecord] = {}
        #: The one table from a negotiated (ip, port) to the call that owns
        #: it and the stream direction it carries; written only by
        #: :meth:`refresh_media_index` and :meth:`delete`.
        self.media_index: Dict[MediaKey, Tuple[CallRecord, str]] = {}
        #: Calls torn down after an internal error: call-id -> quarantine
        #: time.  Their traffic is dropped from inspection (not from the
        #: wire) until the entry expires.
        self.quarantined: Dict[str, float] = {}
        #: Media endpoints of quarantined calls, so their lingering RTP
        #: neither resurrects state nor feeds the orphan-media tracker.
        self.quarantined_media: Dict[MediaKey, str] = {}
        #: Hook: called for every observable firing result of every call
        #: system (every firing when tracing).
        self.on_result: Optional[Callable[[CallRecord, FiringResult], None]] = None
        #: Hook: media-index change notifications, ``hook(key, call_id)``
        #: when a negotiated (addr, port) endpoint is indexed to a call and
        #: ``hook(key, None)`` when it is retired.  A sharding facade uses
        #: this to keep its media routing table in sync
        #: (:class:`~repro.vids.sharding.ShardedVids`); retirement is *not*
        #: signalled while the key is quarantined, so lingering media of a
        #: quarantined call still reaches the shard that owns the
        #: deny-list entry.
        self.on_media_route: Optional[
            Callable[[MediaKey, Optional[str]], None]] = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def active_calls(self) -> int:
        return len(self.records)

    def total_state_bytes(self) -> int:
        """Exact total monitoring-state bytes across all live records.

        Maintained incrementally: only records that fired since the last
        call (the dirty set) are re-measured.
        """
        dirty = self._dirty
        if dirty:
            total = self._total_bytes
            for record in dirty:
                sizes = record.sip_state_bytes(), record.rtp_state_bytes()
                total += sum(sizes) - sum(record._contribution)
                record._contribution = sizes
            dirty.clear()
            self._total_bytes = total
        return self._total_bytes

    # -- lifecycle ----------------------------------------------------------

    def get(self, call_id: str) -> Optional[CallRecord]:
        return self.records.get(call_id)

    def get_or_create(self, call_id: str) -> CallRecord:
        record = self.records.get(call_id)
        if record is None:
            record = self._create(call_id)
        return record

    def _create(self, call_id: str, *, created_at: Optional[float] = None,
                count: bool = True,
                trace_kind: str = "call-created") -> CallRecord:
        system = EfsmSystem(clock_now=self.clock_now,
                            timer_scheduler=self.timer_scheduler)
        system.add_machine(self.spec.sip)
        system.add_machine(self.spec.rtp)
        if created_at is None:
            created_at = self.clock_now()
        record = CallRecord(call_id, system, created_at)

        def dispatch(result, _record=record, _dirty=self._dirty):
            _dirty.add(_record)
            hook = self.on_result
            if hook is not None:
                hook(_record, result)

        system.on_result = dispatch
        trace = self.trace
        if trace is None:
            # A firing no analysis reads (no attack, no deviation, no entry
            # into a final state) only leaves the record's size stale.
            system.on_quiet = partial(self._dirty.add, record)
        else:
            # Traced, every firing reaches the hook, and every δ a machine
            # sends (to the other or to the environment) the call's
            # timeline.
            system.on_output = (
                lambda sender, event, _cid=call_id, _trace=trace:
                _trace.emit("delta", event.time, call_id=_cid,
                            sender=sender, channel=event.channel,
                            event=event.name))
            trace.emit(trace_kind, self.clock_now(), call_id=call_id)
        self._dirty.add(record)
        self.records[call_id] = record
        if count:
            self.metrics.calls_created += 1
        self.metrics.peak_concurrent_calls = max(
            self.metrics.peak_concurrent_calls, len(self.records))
        return record

    def refresh_media_index(self, record: CallRecord) -> None:
        """Re-sync the (ip, port) -> call index from the media globals.

        No-op when the negotiated media is unchanged (the common case:
        every SIP message of an established call triggers a refresh, but
        the endpoints only move on offer/answer/re-INVITE) — detected from
        the raw media globals without building the endpoint dict.
        """
        variables = record.system.globals
        signature = (variables.get("g_offer_addr"),
                     variables.get("g_offer_port"),
                     variables.get("g_answer_addr"),
                     variables.get("g_answer_port"))
        if signature == record._media_sig:
            return
        record._media_sig = signature
        endpoints = record.media_endpoints()
        index = self.media_index
        hook = self.on_media_route
        for key in record.media_map:
            if key not in endpoints and self._owns(record, key):
                del index[key]
                if hook is not None:
                    hook(key, None)
        for key, direction in endpoints.items():
            if hook is not None and not self._owns(record, key):
                hook(key, record.call_id)
            index[key] = (record, direction)
        record.media_map = endpoints

    def _owns(self, record: CallRecord, key: MediaKey) -> bool:
        """Whether ``key`` currently resolves to ``record`` (a later call
        that negotiated the same endpoint takes it over)."""
        match = self.media_index.get(key)
        return match is not None and match[0] is record

    def lookup_media(self, dst: MediaKey) -> Optional[Tuple[CallRecord, str]]:
        """Resolve an RTP packet's destination to (record, direction)."""
        return self.media_index.get(dst)

    def delete(self, call_id: str) -> Optional[CallRecord]:
        """Remove a call's machines from memory, sampling their size."""
        records = self.records
        record = records.get(call_id)
        if record is None:
            return None
        # Sample total state at call granularity (cheap enough here, too
        # expensive per packet); it measures this record as it stands.
        self.metrics.note_concurrency(len(records), self.total_state_bytes())
        del records[call_id]
        self.metrics.call_memory_samples.append(record._contribution)
        self.metrics.calls_deleted += 1
        if self.trace is not None:
            self.trace.emit("call-deleted", self.clock_now(), call_id=call_id,
                            states=record.system.states())
        self._total_bytes -= sum(record._contribution)
        record.system.cancel_all_timers()
        hook = self.on_media_route
        for key in record.media_map:
            if self._owns(record, key):
                del self.media_index[key]
                if hook is not None and key not in self.quarantined_media:
                    hook(key, None)
        return record

    # -- checkpoint / restore (repro.vids.cluster) -----------------------------

    def checkpoint_call(self, record: CallRecord) -> Dict[str, Any]:
        """Serializable snapshot of one call record.

        The media map is *not* stored: it is re-derived from the restored
        globals by :meth:`refresh_media_index`, which also re-fires the
        ``on_media_route`` hooks so a sharding facade's routing table
        re-homes with the call.
        """
        keys = record.deviation_keys
        return {
            "call_id": record.call_id,
            "created_at": record.created_at,
            "last_activity": record.last_activity,
            "deletion_scheduled": record.deletion_scheduled,
            "delete_at": record.delete_at,
            "deviation_keys": frozenset(keys) if keys else None,
            "system": record.system.snapshot(),
        }

    def restore_call(self, snapshot: Mapping[str, Any]) -> CallRecord:
        """Rebuild a call record from a :meth:`checkpoint_call` snapshot."""
        call_id = snapshot["call_id"]
        if call_id in self.records:
            raise ValueError(f"call already present: {call_id}")
        record = self._create(call_id, created_at=snapshot["created_at"],
                              count=False, trace_kind="call-restored")
        record.system.restore(snapshot["system"])
        record.last_activity = snapshot["last_activity"]
        if snapshot["deviation_keys"]:
            record.deviation_keys = set(snapshot["deviation_keys"])
        self.refresh_media_index(record)
        if snapshot.get("deletion_scheduled"):
            record.deletion_scheduled = True
            record.delete_at = snapshot.get("delete_at")
            delay = 0.0
            if record.delete_at is not None:
                delay = max(0.0, record.delete_at - self.clock_now())
            self.timer_scheduler(delay, lambda: self.delete(call_id))
        return record

    def snapshot(self, previous: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, Any]:
        """Serializable copy of every call and of the quarantine lists.

        Incremental: a call that has not fired since ``previous`` (the
        snapshot taken last time) reuses its part of it, refreshing only
        the fields that move outside firings — the firing count
        (``system.deliveries``) is an exact change version.
        """
        prev_calls = previous["calls"] if previous is not None else {}
        calls: Dict[str, Dict[str, Any]] = {}
        for call_id, record in self.records.items():
            call = prev_calls.get(call_id)
            if (call is not None and call["system"]["deliveries"]
                    == record.system.deliveries):
                call = dict(call)
                call["last_activity"] = record.last_activity
                call["deletion_scheduled"] = record.deletion_scheduled
                call["delete_at"] = record.delete_at
            else:
                call = self.checkpoint_call(record)
            calls[call_id] = call
        return {
            "calls": calls,
            "quarantined": dict(self.quarantined),
            "quarantined_media": dict(self.quarantined_media),
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Refill a fresh fact base from a :meth:`snapshot`.

        Restoring each call re-fires the media-route hooks, so a sharding
        facade's routing table re-homes the RTP along with the call.
        """
        self.quarantined.update(snapshot["quarantined"])
        self.quarantined_media.update(snapshot["quarantined_media"])
        for call in snapshot["calls"].values():
            self.restore_call(call)

    # -- quarantine ------------------------------------------------------------

    def is_quarantined(self, call_id: str) -> bool:
        since = self.quarantined.get(call_id)
        if since is None:
            return False
        ttl = self.config.quarantine_ttl
        if ttl is not None and self.clock_now() - since > ttl:
            # Lazy parole on first touch after expiry (collect_garbage
            # paroles the idle ones).
            self.parole(call_id)
            return False
        return True

    def quarantined_media_call(self, key: MediaKey) -> Optional[str]:
        """The quarantined call pinning a media key, if still quarantined.

        Checks parole lazily, so lingering RTP to a paroled call's old
        endpoint stops being dropped the moment the TTL passes.
        """
        call_id = self.quarantined_media.get(key)
        if call_id is None:
            return None
        if not self.is_quarantined(call_id):
            return None
        return call_id

    def parole(self, call_id: str) -> None:
        """Lift a call's quarantine: resume inspecting its traffic."""
        if self.quarantined.pop(call_id, None) is None:
            return
        self.metrics.quarantine_paroles += 1
        if self.trace is not None:
            self.trace.emit("quarantine-parole", self.clock_now(),
                            call_id=call_id)
        self._release_quarantined_media(call_id)

    def _release_quarantined_media(self, call_id: str) -> None:
        hook = self.on_media_route
        for key in [k for k, cid in self.quarantined_media.items()
                    if cid == call_id]:
            del self.quarantined_media[key]
            # Retire the route only if no live call re-negotiated the
            # endpoint while the quarantine entry was pinning it.
            if hook is not None and key not in self.media_index:
                hook(key, None)

    def quarantine(self, call_id: str) -> Optional[CallRecord]:
        """Tear down one call's machines after an internal error.

        The SIP/RTP machines are deleted from memory exactly as on normal
        call completion (timers cancelled, memory sampled), but the call-id
        and its negotiated media endpoints stay on a deny-list so further
        packets of the poisoned call are dropped from inspection instead of
        rebuilding (and re-crashing) the state.
        """
        record = self.records.get(call_id)
        if record is not None:
            for key in record.media_map:
                self.quarantined_media[key] = call_id
        self.quarantined[call_id] = self.clock_now()
        self.metrics.calls_quarantined += 1
        if self.trace is not None:
            self.trace.emit("quarantine", self.clock_now(), call_id=call_id)
        return self.delete(call_id)

    def touch(self, record: CallRecord,
              now: Optional[float] = None) -> None:
        # Nothing is measured here: this runs once per packet, and the
        # Section 7.3 state-size samples are taken when a call is deleted
        # and on the facade's housekeeping pass (collect_garbage).
        record.last_activity = self.clock_now() if now is None else now

    def collect_garbage(self) -> int:
        """Delete records idle longer than the configured TTL.

        The housekeeping pass (every few thousand packets) also takes a
        state-size sample, so a long stretch without deletions still
        shows in ``peak_state_bytes``.
        """
        self.metrics.note_concurrency(len(self.records),
                                      self.total_state_bytes())
        now = self.clock_now()
        stale = [
            call_id for call_id, record in self.records.items()
            if now - record.last_activity > self.config.call_record_ttl
        ]
        for call_id in stale:
            self.delete(call_id)
        ttl = self.config.quarantine_ttl
        expiry = self.config.call_record_ttl if ttl is None else ttl
        expired = [call_id for call_id, since in self.quarantined.items()
                   if now - since > expiry]
        for call_id in expired:
            if ttl is not None:
                # Parole (counted + traced): the call becomes inspectable
                # again rather than silently aging out.
                self.parole(call_id)
            else:
                del self.quarantined[call_id]
                self._release_quarantined_media(call_id)
        return len(stale)
