"""repro.obs: unified observability for the vids reproduction.

Three cooperating facilities, threaded through netsim → sip → efsm → vids
(docs/OBSERVABILITY.md):

- **call-scoped tracing** (:mod:`repro.obs.trace`) — a ring-buffered,
  sim-time-stamped event bus correlating classifier verdicts, distributor
  routing, EFSM firings, δ channel messages, alerts, quarantine/shed
  decisions, and fault injections by call-id and packet-id, rendered by
  :func:`render_timeline` and the ``trace`` CLI subcommand;
- **metrics registry** (:mod:`repro.obs.metrics`) — labelled
  counter/gauge/histogram families with JSON and Prometheus-text
  exposition, backing the migrated :class:`~repro.vids.metrics.VidsMetrics`
  plus netsim link/queue gauges;
- **profiling hooks** (:mod:`repro.obs.profiler`) — opt-in per-stage
  wall/CPU timers (classify/distribute/fire) with near-zero overhead when
  disabled.

An :class:`Observability` bundle carries all three through constructor
signatures; every consumer treats it (and each part) as optional, so the
default pipeline pays only pointer comparisons.
"""

from __future__ import annotations

from typing import Optional

from .metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_MAX_LABEL_SETS,
    OVERFLOW_LABEL,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    PromSample,
    parse_prometheus,
)
from .profiler import StageProfiler, StageStats
from .timeline import format_event, render_timeline
from .trace import (
    DEFAULT_TRACE_CAPACITY,
    TRACE_FORMAT_VERSION,
    TraceBus,
    TraceEvent,
    TraceExport,
    from_jsonl,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "DEFAULT_TRACE_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Observability",
    "OVERFLOW_LABEL",
    "PromSample",
    "StageProfiler",
    "StageStats",
    "TRACE_FORMAT_VERSION",
    "TraceBus",
    "TraceEvent",
    "TraceExport",
    "format_event",
    "from_jsonl",
    "parse_prometheus",
    "render_timeline",
]


class Observability:
    """The bundle a pipeline component receives: trace + metrics + profiler.

    ``profile`` is the one profiling switch: a default ``Observability()``
    traces and meters but never touches a clock.
    """

    def __init__(self, trace: Optional[TraceBus] = None,
                 registry: Optional[MetricsRegistry] = None,
                 profile: bool = False,
                 trace_capacity: int = DEFAULT_TRACE_CAPACITY):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace if trace is not None else TraceBus(trace_capacity)
        self.profiler: Optional[StageProfiler] = (
            StageProfiler(registry=self.registry) if profile else None)

    def timeline(self, call_id: Optional[str] = None,
                 limit: Optional[int] = None) -> str:
        """Render the buffered trace as a forensic timeline."""
        return render_timeline(self.trace.events(), call_id=call_id,
                               limit=limit)
