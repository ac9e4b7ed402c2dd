"""The benchmark's metric tables, as data.

``BENCHMARK.json`` carries name / unit / direction (and the bound of an
end-to-end metric); the contract allows no further keys there, so the
rest of each per-layer row — which end-to-end metric it should move and
on which workload — lives here, where the runner prints it and the
README explains it.  ``tests/test_e2e_contract.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

WORKLOADS = {
    "sip_churn":
        "Signalling-bound: complete benign dialogs and no media, so SIP "
        "parsing, event extraction, fact-base create/delete and timers do "
        "the work.",
    "rtp_steady":
        "Media-bound: a few set-up messages, then steady two-way G.729, so "
        "pcap decode, RTP parsing and fact-base media lookups do the work.",
    "mixed_attack":
        "The paper's testbed traffic with every Section-3 injector and 1 % "
        "noise: attack transitions, alert construction and cross-call "
        "trackers run, and the attack log is the detection oracle.",
    "mixed_cluster":
        "The mixed_attack capture through four supervised shards: routing, "
        "checkpoints and heartbeats are the only extra work, and verdicts "
        "must equal the single pipeline's.",
    "live_loopback":
        "Open-loop G.729 over real loopback UDP into the asyncio tap: the "
        "only workload where packets wait in socket, queue and flush batch.",
}

#: name -> (unit, better, bound).  Timings of CPU-bound work are at
#: nominal speed (``probe.py``).  ``failed_share`` is printed by the
#: runner but is not in BENCHMARK.json: the contract wants metrics that
#: are never 0 and carries failures in its own ``failed`` field.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "pkts_per_s": ("packets/s", "higher", 0.25),
    "cpu_us_per_pkt": ("us", "lower", 0.25),
    "verdict_latency_us_p50": ("us", "lower", 0.25),
    "verdict_latency_us_p99": ("us", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

_RATE = "pkts_per_s, cpu_us_per_pkt"
_BOTH = "pkts_per_s, verdict_latency_us_p50"

#: name -> (unit, better, end-to-end metrics it should move, on which
#: workloads).  ``ns`` metrics are self time per unit of the traced pass.
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {
    "live.pcap.decode_ns_per_pkt":
        ("ns", "lower", _RATE, "rtp_steady, mixed_* (about a third); "
         "little on sip_churn; none on live_loopback"),
    "live.pcap.decode_errors": ("count", "lower", "failed", "all replay"),
    "sip.message.parse_ns_per_msg": ("ns", "lower", _BOTH, "sip_churn"),
    "rtp.packet.parse_ns_per_pkt":
        ("ns", "lower", _BOTH, "rtp_steady, mixed_*, live_loopback"),
    "vids.classifier.classify_ns_per_pkt": ("ns", "lower", _BOTH, "all"),
    "vids.classifier.malformed_count": ("count", "lower", "-", "mixed_*"),
    "vids.distributor.self_ns_per_pkt":
        ("ns", "lower", _BOTH, "sip_churn (largest share); small on "
         "rtp_steady"),
    "efsm.system.inject_ns_per_event":
        ("ns", "lower", _BOTH + ", verdict_latency_us_p99", "all"),
    "efsm.system.firings_per_pkt": ("count", "lower", "pkts_per_s", "all"),
    "efsm.clock.advance_ns_per_pkt":
        ("ns", "lower", _BOTH, "sip_churn (timers); ~0 on rtp_steady"),
    "efsm.clock.timers_fired": ("count", "lower", "-", "sip_churn"),
    "vids.engine.handle_result_ns_per_firing":
        ("ns", "lower", "verdict_latency_us_p99", "mixed_*"),
    "vids.engine.alerts_raised":
        ("count", "higher", "-", "mixed_*; 0 on benign workloads"),
    "vids.factbase.create_ns_per_call":
        ("ns", "lower", "pkts_per_s", "sip_churn"),
    "vids.factbase.delete_ns_per_call":
        ("ns", "lower", "pkts_per_s", "sip_churn"),
    "vids.factbase.lookup_media_ns_per_pkt":
        ("ns", "lower", "pkts_per_s", "rtp_steady, live_loopback"),
    "vids.factbase.peak_calls": ("count", "lower", "peak_rss_mb", "all"),
    "vids.factbase.state_bytes_per_call":
        ("count", "lower", "peak_rss_mb", "all (paper: ~450 B + ~40 B)"),
    "vids.ids.process_self_ns_per_pkt":
        ("ns", "lower", "pkts_per_s", "all, equally"),
    "vids.ids.batch_loop_ns_per_pkt":
        ("ns", "lower", "pkts_per_s", "single-pipeline workloads"),
    "vids.ids.time_regressions": ("count", "lower", "-", "mixed_*"),
    "vids.sharding.route_ns_per_pkt":
        ("ns", "lower", "pkts_per_s", "mixed_cluster only"),
    "vids.sharding.shard_skew": ("ratio", "lower", "-", "mixed_cluster only"),
    "vids.sharding.overhead_ratio":
        ("ratio", "lower", "pkts_per_s", "mixed_cluster only"),
    "vids.cluster.checkpoint_ns_per_checkpoint":
        ("ns", "lower", "pkts_per_s, verdict_latency_us_p99",
         "mixed_cluster only"),
    "vids.cluster.checkpoints_taken":
        ("count", "lower", "-", "mixed_cluster only"),
    "vids.cluster.calls_checkpointed":
        ("count", "lower", "-", "mixed_cluster only"),
    "vids.cluster.supervise_overhead_ratio":
        ("ratio", "lower", "pkts_per_s", "mixed_cluster only"),
    "obs.trace.attached_overhead_ratio":
        ("ratio", "lower", "pkts_per_s when attached", "mixed_attack only"),
    "obs.trace.events_emitted": ("count", "lower", "-", "mixed_attack only"),
    "obs.trace.dropped": ("count", "lower", "-", "mixed_attack only"),
    "live.frontend.recv_lag_ms_p50":
        ("ms", "lower", "verdict_latency_us_p50", "live_loopback only"),
    "live.frontend.queue_wait_ms_p50":
        ("ms", "lower", "verdict_latency_us_p50", "live_loopback only"),
    "live.frontend.flush_ms_p50":
        ("ms", "lower", "verdict_latency_us_p50", "live_loopback only"),
    "live.frontend.flush_ms_p99":
        ("ms", "lower", "verdict_latency_us_p99", "live_loopback only"),
    "live.frontend.batch_pkts_p50":
        ("count", "lower", "-", "live_loopback only"),
    "live.frontend.lost_datagrams":
        ("count", "lower", "failed", "live_loopback only"),
    "bench.gen.late_ms_p99":
        ("ms", "lower", "-", "live_loopback: health of the generator"),
    "bench.trace_overhead_ratio":
        ("ratio", "lower", "-", "all: traced wall / untraced wall"),
    "bench.unattributed_ratio":
        ("ratio", "lower", "-", "all replay: root self time / traced wall"),
}

#: span-derived metric -> (layer, what its self time is divided by:
#: that layer's own span count, or the datagrams of the pass).
_PER_SPAN, _PER_PACKET = "span", "packet"
_SPAN_METRICS = {
    "live.pcap.decode_ns_per_pkt": ("live.pcap", _PER_PACKET),
    "sip.message.parse_ns_per_msg": ("sip.message", _PER_SPAN),
    "rtp.packet.parse_ns_per_pkt": ("rtp.packet", _PER_SPAN),
    "vids.classifier.classify_ns_per_pkt": ("vids.classifier", _PER_SPAN),
    "vids.distributor.self_ns_per_pkt": ("vids.distributor", _PER_PACKET),
    "efsm.system.inject_ns_per_event": ("efsm.system", _PER_SPAN),
    "efsm.clock.advance_ns_per_pkt": ("efsm.clock", _PER_PACKET),
    "vids.engine.handle_result_ns_per_firing": ("vids.engine", _PER_SPAN),
    "vids.factbase.create_ns_per_call": ("vids.factbase.create", _PER_SPAN),
    "vids.factbase.delete_ns_per_call": ("vids.factbase.delete", _PER_SPAN),
    "vids.factbase.lookup_media_ns_per_pkt":
        ("vids.factbase.lookup_media", _PER_SPAN),
    "vids.ids.process_self_ns_per_pkt": ("vids.ids", _PER_PACKET),
    "vids.ids.batch_loop_ns_per_pkt": ("vids.ids.batch_loop", _PER_PACKET),
    "vids.sharding.route_ns_per_pkt": ("vids.sharding", _PER_PACKET),
    "vids.cluster.checkpoint_ns_per_checkpoint":
        ("vids.cluster", _PER_SPAN),
}


def from_spans(by_layer: Mapping[str, Tuple[int, int, int]],
               packets: int, speed: float = 1.0) -> Dict[str, float]:
    """The ``ns`` metrics (and the firing count) of one traced pass.

    ``by_layer`` is :meth:`spans.Tracer.by_layer`; a layer that never ran
    reports 0.  ``speed`` scales the pass to nominal speed (``probe.py``).
    """
    values: Dict[str, float] = {}
    for name, (layer, per) in _SPAN_METRICS.items():
        spans, _, self_ns = by_layer.get(layer, (0, 0, 0))
        divisor = spans if per == _PER_SPAN else packets
        values[name] = self_ns * speed / divisor if divisor else 0.0
    firings = by_layer.get("vids.engine", (0, 0, 0))[0]
    values["efsm.system.firings_per_pkt"] = firings / packets
    return values
