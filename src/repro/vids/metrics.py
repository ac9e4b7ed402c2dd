"""Resource accounting for vids: memory per call and CPU time.

Section 7.3 of the paper reports that the per-call monitoring state costs
about 450 bytes for the SIP side ("all mandatory fields, including source,
destination, port numbers, and media information") and about 40 bytes for
the RTP side ("source, destination, ports, sequence number, timestamp,
synchronization source identifier, and other relevant variable values"),
growing linearly with concurrent calls.  :func:`estimate_state_bytes`
measures our actual stored state the same way: the serialized width of every
state-variable value, not Python-object overhead, so numbers are comparable
with the paper's C-struct-style accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = ["estimate_value_bytes", "estimate_state_bytes", "VidsMetrics"]


def estimate_value_bytes(value: Any) -> int:
    """Wire-width of one state-variable value.

    Measures the closed domain :func:`~repro.efsm.machine.copy_state`
    checkpoints — atoms, tuples, frozensets and plain ``dict``/``list``/
    ``set`` — by exact type; anything outside it counts a flat 16 bytes.
    """
    return _width((value,))


def _width(values: Iterable[Any]) -> int:
    """The summed wire-width of ``values``.  Strings, ints and tuples —
    every shipped state value — come first and nest without a call per
    item: per-record sampling walks every active call's vectors."""
    total = 0
    for value in values:
        kind = type(value)
        if kind is str:
            # ASCII (the overwhelmingly common case for protocol facts)
            # needs no encode: the character count is the byte count.
            total += (len(value) if value.isascii()
                      else len(value.encode("utf-8")))
        elif kind is int:
            total += 4 if -(2 ** 31) <= value < 2 ** 31 else 8
        elif kind in (tuple, list, set, frozenset):
            total += _width(value)
        elif kind is float:
            total += 8
        elif kind is bool or value is None:
            total += 1
        elif kind is dict:
            total += _width(value) + _width(value.values())
        else:
            total += len(value) if kind is bytes else 16
    return total


def estimate_state_bytes(variables: Mapping[str, Any]) -> int:
    """Total serialized width of a variable vector (values only).

    A variable's name is not state.  A dict *value*, though, is measured
    with its keys (it could not be stored without them), which is one
    reason no shipped machine keeps one: state values are numbers,
    strings and flat tuples.
    """
    return _width(variables.values())


@dataclass
class VidsMetrics:
    """Running counters maintained by the IDS."""

    packets_processed: int = 0
    sip_messages: int = 0
    rtp_packets: int = 0
    rtcp_packets: int = 0
    other_packets: int = 0
    malformed_packets: int = 0
    cpu_time: float = 0.0
    calls_created: int = 0
    calls_deleted: int = 0
    peak_concurrent_calls: int = 0
    peak_state_bytes: int = 0
    #: Per-call memory observations: (sip_bytes, rtp_bytes) at deletion time.
    call_memory_samples: List = field(default_factory=list)

    #: RFC 5626 CRLF/CRLF-CRLF (and zero-length) keepalives on the SIP port.
    keepalive_packets: int = 0

    # -- robustness accounting (docs/ROBUSTNESS.md) ---------------------------
    #: Per-protocol parse failures (no drop is silent).
    malformed_sip: int = 0
    malformed_rtp: int = 0
    malformed_rtcp: int = 0
    #: SDP bodies that failed to parse inside otherwise-valid SIP messages.
    sdp_parse_failures: int = 0
    #: Unexpected exceptions contained by the crash-containment wrapper.
    internal_errors: int = 0
    #: Calls torn down by quarantine after an internal error.
    calls_quarantined: int = 0
    #: Packets addressed to quarantined calls, dropped from inspection.
    quarantined_drops: int = 0
    #: Quarantined calls released by TTL parole (quarantine_ttl config).
    quarantine_paroles: int = 0
    #: Capture timestamps that went backwards and were clamped onto the
    #: monotonic analysis clock (multi-NIC pcap merges, clock steps).
    time_regressions: int = 0
    #: RTP/RTCP packets that skipped deep inspection during overload.
    packets_shed: int = 0
    #: Completed overload-shedding intervals as (start, end) times.
    shed_intervals: List = field(default_factory=list)
    #: Times shedding engaged (>= len(shed_intervals) if still shedding).
    shed_events: int = 0

    @property
    def shed_time(self) -> float:
        """Total seconds spent in completed shedding intervals."""
        return sum(end - start for start, end in self.shed_intervals)

    def note_concurrency(self, active_calls: int, state_bytes: int) -> None:
        self.peak_concurrent_calls = max(self.peak_concurrent_calls, active_calls)
        self.peak_state_bytes = max(self.peak_state_bytes, state_bytes)

    @property
    def mean_sip_state_bytes(self) -> float:
        if not self.call_memory_samples:
            return 0.0
        return sum(s for s, _ in self.call_memory_samples) / len(self.call_memory_samples)

    @property
    def mean_rtp_state_bytes(self) -> float:
        if not self.call_memory_samples:
            return 0.0
        return sum(r for _, r in self.call_memory_samples) / len(self.call_memory_samples)

    # Registry exposition tables: (field name, help text).  Counters are the
    # monotonically increasing tallies; gauges are point-in-time or derived
    # values.  All are exported via callbacks so the hot path keeps bare
    # attribute increments and pays nothing for exposition.
    _COUNTER_FIELDS = (
        ("packets_processed", "Total packets handed to the IDS"),
        ("sip_messages", "Well-formed SIP messages classified"),
        ("rtp_packets", "RTP packets classified"),
        ("rtcp_packets", "RTCP packets classified"),
        ("other_packets", "Packets of no monitored protocol"),
        ("keepalive_packets", "RFC 5626 keepalive datagrams on the SIP port"),
        ("malformed_packets", "Packets that failed protocol parsing"),
        ("cpu_time", "Modelled IDS CPU seconds consumed"),
        ("calls_created", "Call fact-base entries created"),
        ("calls_deleted", "Call fact-base entries deleted"),
        ("malformed_sip", "SIP parse failures"),
        ("malformed_rtp", "RTP parse failures"),
        ("malformed_rtcp", "RTCP parse failures"),
        ("sdp_parse_failures", "SDP bodies that failed to parse"),
        ("internal_errors", "Exceptions contained by crash containment"),
        ("calls_quarantined", "Calls torn down by quarantine"),
        ("quarantined_drops", "Packets dropped for quarantined calls"),
        ("quarantine_paroles", "Quarantined calls released by TTL parole"),
        ("time_regressions", "Backward capture timestamps clamped monotonic"),
        ("packets_shed", "Media packets shed during overload"),
        ("shed_events", "Times overload shedding engaged"),
    )
    _GAUGE_FIELDS = (
        ("peak_concurrent_calls", "High-water mark of concurrent calls"),
        ("peak_state_bytes", "High-water mark of total per-call state bytes"),
        ("mean_sip_state_bytes", "Mean SIP-side state bytes per deleted call"),
        ("mean_rtp_state_bytes", "Mean RTP-side state bytes per deleted call"),
        ("shed_time", "Seconds spent in completed shedding intervals"),
    )

    def register_with(self, registry: Any, prefix: str = "vids",
                      labels: Optional[Dict[str, str]] = None) -> None:
        """Expose every counter/gauge through an obs ``MetricsRegistry``.

        Samples are read live via callbacks at collect time, so the IDS hot
        path keeps plain ``+=`` increments on this dataclass.  With
        ``labels`` (e.g. ``{"shard": "3"}``) each family is created with
        those labelnames and this instance backs one labelled child —
        how a sharded deployment exports per-shard series under the same
        metric names (docs/SCALING.md).
        """
        labelnames = tuple(labels) if labels else ()
        for name, help_text in self._COUNTER_FIELDS:
            family = registry.counter(f"{prefix}_{name}", help_text,
                                      labelnames=labelnames)
            child = family.labels(**labels) if labels else family
            child.set_function(partial(getattr, self, name))
        for name, help_text in self._GAUGE_FIELDS:
            family = registry.gauge(f"{prefix}_{name}", help_text,
                                    labelnames=labelnames)
            child = family.labels(**labels) if labels else family
            child.set_function(partial(getattr, self, name))

    @classmethod
    def merged(cls, parts: Iterable["VidsMetrics"]) -> "VidsMetrics":
        """Aggregate several instances (e.g. per-shard) into one view.

        Counters and cpu_time sum; memory samples and shed intervals
        concatenate.  The peaks are summed too: per-shard peaks need not
        coincide in time, so the result is an *upper bound* on the true
        aggregate high-water mark (each shard's peak is a lower bound on
        its own contribution at some instant).
        """
        total = cls()
        for part in parts:
            for name, _ in cls._COUNTER_FIELDS:
                setattr(total, name, getattr(total, name) + getattr(part, name))
            total.peak_concurrent_calls += part.peak_concurrent_calls
            total.peak_state_bytes += part.peak_state_bytes
            total.call_memory_samples.extend(part.call_memory_samples)
            total.shed_intervals.extend(part.shed_intervals)
        total.shed_intervals.sort()
        return total

    def summary(self) -> Dict[str, Any]:
        """Every exported counter and gauge by field name."""
        return {name: getattr(self, name)
                for name, _ in self._COUNTER_FIELDS + self._GAUGE_FIELDS}

    # -- checkpoint / restore -------------------------------------------------

    #: The two append-only logs; every other field is a flat number.
    _LOG_FIELDS = ("call_memory_samples", "shed_intervals")

    def snapshot(self, previous: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, Any]:
        """Every field by name, the two logs as tuples.

        A ``__dict__`` copy: ``copy.deepcopy`` or a per-field getattr loop
        costs more than the rest of a checkpoint.  A log only grows, so
        while its length has not moved the tuple of ``previous`` (the
        snapshot taken last time) is carried over, not copied again.
        """
        state = dict(self.__dict__)
        for name in self._LOG_FIELDS:
            log = state[name]
            if previous is not None and len(previous[name]) == len(log):
                state[name] = previous[name]
            else:
                state[name] = tuple(log)
        return state

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rewind to a :meth:`snapshot`, in place: the fact base and the
        registry callbacks hold references to this object."""
        self.__dict__.update(snapshot)
        for name in self._LOG_FIELDS:
            setattr(self, name, list(snapshot[name]))
