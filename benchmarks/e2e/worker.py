"""One workload, measured inside this process (``run.py`` spawns it).

Untraced run (``--trace 0``): set-up, then a timed ``replay_pcap`` and a
latency pass in turn until ``--seconds`` are used (never fewer than
``--min-repeats`` of each), every verdict checked; prints the end-to-end
metrics, each timing as the median of its repeats.  Traced run (``--trace 1``):
untraced and span-shimmed replays interleaved; prints the per-layer
metrics.  The last line of standard output is one JSON object.

Every CPU-bound timing is scaled to nominal speed by the speed probe that
ticks while it is taken (``probe.py``).
"""

from __future__ import annotations

import time

STARTED_NS = time.perf_counter_ns()     # set-up is timed from here

import probe       # noqa: E402 - beside this file, like the modules below

#: Ticks through set-up.  Started only when this file is the program, and
#: before the imports below: they are set-up too.
SETUP_PROBE = probe.SpeedProbe()
if __name__ == "__main__":
    SETUP_PROBE.start()

import argparse    # noqa: E402
import contextlib  # noqa: E402
import gc          # noqa: E402
import json        # noqa: E402
import os          # noqa: E402
import resource    # noqa: E402
import sys         # noqa: E402
from dataclasses import dataclass, field    # noqa: E402
from statistics import median               # noqa: E402
from typing import Dict, List, Optional     # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import live        # noqa: E402
import metrics as tables    # noqa: E402
import oracle      # noqa: E402
import spans       # noqa: E402
import stats       # noqa: E402
import workloads   # noqa: E402
from repro.live import (DecodeStats, build_pipeline, load_pcap,    # noqa: E402
                        rebase_capture, replay_pcap, write_pcap)
from repro.obs import Observability         # noqa: E402
from repro.vids import DEFAULT_CONFIG       # noqa: E402

#: Shedding off (the NO_SHED precedent of tests/integration/
#: test_live_parity.py): the default cost model is a 333 MHz Sun Ultra,
#: and at benchmark rates it would flip the pipeline into signalling-only
#: mode within a few dozen packets.  Every workload asserts nothing shed.
CONFIG = DEFAULT_CONFIG.with_overrides(shed_high_watermark=1e9)

#: Pipeline tier per replay workload (``replay_pcap`` keyword arguments).
TIERS = {
    "sip_churn": {},
    "rtp_steady": {},
    "mixed_attack": {},
    "mixed_cluster": {"shards": 4, "supervise": True},
}
BARE_SHARDED = {"shards": 4}

WARMUP_PACKETS = 2000
#: The latency pass reads the speed probe about this often (ns).
PROBE_GAP_NS = int(probe.INTERVAL * 1e9)
#: Least number of timed replays (and latency passes) however short
#: ``--seconds`` is; a traced run does half as many rounds.
MIN_REPEATS = 5


@dataclass
class Prepared:
    """A workload after set-up: the capture on disk and its ground truth."""

    name: str
    path: str
    offered: int
    #: Attack log of the mixed workloads; None means benign traffic.
    instances: Optional[list]
    #: Set-up at nominal speed, and as the clock read it.
    setup_s: float = 0.0
    raw_setup_s: float = 0.0


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def add(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(failures[:20 - len(self.reasons)])

    def lost(self, offered: int, analysed: int, what: str) -> None:
        """``offered`` datagrams attempted, of which ``analysed`` made it."""
        missing = max(0, offered - analysed)
        self.attempted += offered
        self.failed += missing
        if missing and len(self.reasons) < 20:
            self.reasons.append(f"{missing} datagrams {what}")


def prepare(name: str, seed: int, scale: float, workdir: str) -> Prepared:
    """Inputs from the seed, the capture on disk, one warm-up replay (so
    spec verification and template compilation are paid before timing)."""
    instances = None
    if name.startswith("mixed_"):
        mixed = workloads.mixed_capture(seed, scale)
        capture, instances = mixed.capture, mixed.instances
    else:
        capture = getattr(workloads, name)(seed, scale)
    path = os.path.join(workdir, f"{name}.pcap")
    write_pcap(path, capture)
    warmup = os.path.join(workdir, "warmup.pcap")
    write_pcap(warmup, capture[:WARMUP_PACKETS])
    replay_pcap(warmup, config=CONFIG, **TIERS[name])
    return Prepared(name, path, len(capture), instances)


@dataclass
class Replay:
    #: Seconds at nominal speed, wall and process CPU.
    wall: float
    cpu: float
    #: Wall seconds as the clock read them.
    raw_wall: float
    pipeline: object
    decode: DecodeStats

    @property
    def speed(self) -> float:
        """Nominal seconds per clock second of this replay: what scales
        a span of it to nominal speed."""
        return self.wall / self.raw_wall


def timed_replay(prepared: Prepared, tier: dict, obs=None,
                 tracer: Optional[spans.Tracer] = None) -> Replay:
    """pcap path on disk -> alerts out, timed as one piece (and, under a
    tracer, the root span of the pass)."""
    gc.collect()
    decode = DecodeStats()
    root = tracer.span("bench") if tracer is not None \
        else contextlib.nullcontext()
    speed_probe = probe.SpeedProbe()
    with speed_probe.ticking():
        cpu, begin = time.process_time(), time.perf_counter_ns()
        with root:
            pipeline = replay_pcap(prepared.path, config=CONFIG,
                                   stats=decode, obs=obs, **tier)
        end = time.perf_counter_ns()
        cpu = time.process_time() - cpu
    raw_wall = (end - begin) / 1e9
    return Replay(speed_probe.at_nominal(begin, end, raw_wall),
                  speed_probe.at_nominal(begin, end, cpu), raw_wall,
                  pipeline, decode)


def verify(prepared: Prepared, tally: Tally, pipeline,
           decode: Optional[DecodeStats] = None,
           first_alerts: Optional[list] = None) -> list:
    """Count what one analysis of the capture got wrong; returns its
    alert keys so later repeats can be held against them."""
    counted = pipeline.metrics
    analysed = counted.packets_processed - counted.internal_errors \
        - counted.packets_shed
    if decode is not None:
        analysed = min(analysed, decode.udp_datagrams) \
            - decode.decode_errors - decode.truncated_frames
    tally.lost(prepared.offered, analysed, "not analysed")
    alerts = oracle.alert_keys(pipeline)
    if prepared.instances is None:
        tally.add(*oracle.check_benign(alerts))
    else:
        tally.add(*oracle.check_attacks(prepared.instances, alerts))
    if first_alerts is not None and alerts != first_alerts:
        tally.add(1, ["alerts differ from the first repeat"])
    return alerts


def latency_pass(capture, tier: dict):
    """Ingest -> verdict per datagram: the clock is advanced outside the
    stamp, ``pipeline.process`` alone is inside it.  The speed probe is
    read between datagrams every few milliseconds, and each stretch of
    samples is scaled by the two readings around it.  Returns the samples
    (ns at nominal speed) and the pipeline."""
    pipeline, clock = build_pipeline(config=CONFIG, **tier)
    process, now, advance = pipeline.process, clock.now, clock.advance
    stamp = time.perf_counter_ns
    samples = []
    speed_probe = probe.SpeedProbe()
    stretches = [0]     # index of the first sample after each reading
    gc.collect()
    next_reading = speed_probe.sample() + PROBE_GAP_NS
    for packet in capture:
        behind = packet.time - now()
        if behind > 0:
            advance(behind)
        begin = stamp()
        process(packet.datagram, now())
        end = stamp()
        samples.append(end - begin)
        if end > next_reading:
            stretches.append(len(samples))
            next_reading = speed_probe.sample() + PROBE_GAP_NS
    stretches.append(len(samples))
    speed_probe.sample()
    advance(CONFIG.bye_inflight_timer + CONFIG.closed_record_linger + 1.0)
    return speed_probe.scale(samples, stretches), pipeline


def run_untraced(prepared: Prepared, seconds: float,
                 min_repeats: int) -> dict:
    """The end-to-end metrics of one replay workload."""
    tier = TIERS[prepared.name]
    tally = Tally()
    deadline = time.perf_counter() + seconds
    capture = rebase_capture(load_pcap(prepared.path))
    walls, cpus, raw_walls, p50s, p99s = [], [], [], [], []
    first_alerts = None
    first = None
    while len(walls) < min_repeats or time.perf_counter() < deadline:
        replay = timed_replay(prepared, tier)
        alerts = verify(prepared, tally, replay.pipeline, replay.decode,
                        first_alerts)
        if first_alerts is None:
            first_alerts, first = alerts, replay.pipeline
        walls.append(replay.wall)
        cpus.append(replay.cpu)
        raw_walls.append(replay.raw_wall)
        samples, pipeline = latency_pass(capture, tier)
        verify(prepared, tally, pipeline, first_alerts=first_alerts)
        samples.sort()
        p50s.append(stats.percentile(samples, 50.0) / 1e3)
        p99s.append(stats.percentile(samples, 99.0) / 1e3)
    if prepared.name == "mixed_cluster":
        # Verdicts may not depend on the tier: one single-pipeline replay
        # of the same file is the reference.
        reference = replay_pcap(prepared.path, config=CONFIG)
        tally.add(*oracle.check_parity(
            first_alerts, oracle.counters(first),
            oracle.alert_keys(reference), oracle.counters(reference)))
    supported = stats.highest_supported_percentile(prepared.offered)
    note(f"{len(walls)} replays and {len(walls)} latency passes of "
         f"{prepared.offered} datagrams (highest supported percentile: "
         f"p{supported:g})")
    note(f"packets/s as the clock read them: slowest replay "
         f"{prepared.offered / max(raw_walls):.0f}, median "
         f"{prepared.offered / median(raw_walls):.0f}, fastest "
         f"{prepared.offered / min(raw_walls):.0f}; at nominal speed: "
         f"{prepared.offered / max(walls):.0f}, "
         f"{prepared.offered / median(walls):.0f}, "
         f"{prepared.offered / min(walls):.0f}; set-up {prepared.setup_s:.3f} "
         f"s nominal, {prepared.raw_setup_s:.3f} s by the clock")
    return finish(tally, {
        "pkts_per_s": prepared.offered / median(walls),
        "cpu_us_per_pkt": 1e6 * median(cpus) / prepared.offered,
        "verdict_latency_us_p50": median(p50s),
        "verdict_latency_us_p99": median(p99s),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": prepared.setup_s,
    }, tables.END_TO_END)


def run_traced(prepared: Prepared, seconds: float, min_rounds: int,
               span_dump: Optional[str]) -> dict:
    """The per-layer metrics of one replay workload."""
    name, tier = prepared.name, TIERS[prepared.name]
    tally = Tally()
    deadline = time.perf_counter() + seconds
    # Every ratio is taken between neighbours of one round, so both sides
    # saw the same machine; the median over the rounds is reported.
    ratios: Dict[str, List[float]] = {
        key: [] for key in ("traced", "sharding", "supervise", "obs")}
    layered: List[Dict[str, float]] = []
    unattributed = []
    while len(layered) < min_rounds or time.perf_counter() < deadline:
        bare = timed_replay(prepared, tier).wall
        if name == "mixed_cluster":
            sharded = timed_replay(prepared, BARE_SHARDED).wall
            single = timed_replay(prepared, {}).wall
            ratios["sharding"].append(sharded / single)
            ratios["supervise"].append(bare / sharded)
        if name == "mixed_attack":
            obs = Observability()
            ratios["obs"].append(
                timed_replay(prepared, tier, obs=obs).wall / bare)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            replay = timed_replay(prepared, tier, tracer=tracer)
        ratios["traced"].append(replay.wall / bare)
        verify(prepared, tally, replay.pipeline, replay.decode)
        by_layer = tracer.by_layer()
        layered.append(tables.from_spans(by_layer, prepared.offered,
                                         replay.speed))
        _, root_total, root_self = by_layer["bench"]
        unattributed.append(root_self / root_total)
    if span_dump:
        tracer.dump(span_dump)

    values = {key: median([row[key] for row in layered])
              for key in layered[0]}
    pipeline = replay.pipeline
    values.update(counted_by_the_program(pipeline, tracer))
    values.update({
        "live.pcap.decode_errors":
            replay.decode.decode_errors + replay.decode.truncated_frames,
        "bench.trace_overhead_ratio": median(ratios["traced"]),
        "bench.unattributed_ratio": median(unattributed),
    })
    if name == "mixed_cluster":
        per_shard = [shard.metrics.packets_processed
                     for shard in pipeline.shards]
        cluster = pipeline.cluster_metrics
        values.update({
            "vids.sharding.shard_skew":
                max(per_shard) * len(per_shard) / sum(per_shard),
            "vids.sharding.overhead_ratio": median(ratios["sharding"]),
            "vids.cluster.supervise_overhead_ratio":
                median(ratios["supervise"]),
            "vids.cluster.checkpoints_taken": cluster.checkpoints_taken,
            "vids.cluster.calls_checkpointed": cluster.calls_checkpointed,
        })
    if name == "mixed_attack":
        values.update({
            "obs.trace.attached_overhead_ratio": median(ratios["obs"]),
            "obs.trace.events_emitted": obs.trace.emitted,
            "obs.trace.dropped": obs.trace.dropped,
        })
    note(f"{len(layered)} traced replays; unattributed share of the traced "
         f"wall time {values['bench.unattributed_ratio']:.3f}")
    return finish(tally, values, tables.PER_LAYER)


def run_live_workload(args) -> dict:
    """``live_loopback``: both kinds of run come out of one session."""
    # Set-up here is a schedule played in real time: nothing to scale.
    SETUP_PROBE.stop()
    run = live.run_live(CONFIG, args.seed, args.seconds, args.scale,
                        bool(args.trace), STARTED_NS / 1e9,
                        probe.SpeedProbe(), args.setup_only)
    if args.setup_only:
        return {"setup_s": run.setup_s}
    tally = Tally()
    counted = run.pipeline.metrics
    tally.lost(run.sent, counted.packets_processed - counted.internal_errors
               - counted.packets_shed, "lost between sender and verdict")
    tally.add(*oracle.check_benign(oracle.alert_keys(run.pipeline)))
    windows = [window for window in run.windows if window[0]]
    smallest = min(window[0] for window in windows)
    supported = stats.highest_supported_percentile(smallest)
    note(f"{len(windows)} slices of {run.window_s:g} s with at least "
         f"{smallest} datagrams each (highest supported percentile: "
         f"p{supported:g})")
    if not args.trace:
        packets = sum(count for count, _, _ in windows)
        return finish(tally, {
            "pkts_per_s": packets / (run.window_s * len(run.windows)),
            "cpu_us_per_pkt":
                1e6 * sum(cpu for _, cpu, _ in windows) / packets,
            # One host stall delays every datagram due while it lasts -
            # more than 1 % of a run - so the percentiles are taken per
            # slice and the median slice is reported.
            "verdict_latency_us_p50": median(
                [stats.percentile(latency, 50.0)
                 for _, _, latency in windows]),
            "verdict_latency_us_p99": median(
                [stats.percentile(latency, 99.0)
                 for _, _, latency in windows]),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": run.setup_s,
        }, tables.END_TO_END)
    if args.span_dump:
        run.tracer.dump(args.span_dump)
    flush_p50, flush_p99 = live.percentiles(run.flush_ms)
    values = tables.from_spans(run.tracer.by_layer(),
                               max(1, run.traced_packets), run.traced_speed)
    values.update(counted_by_the_program(run.pipeline, run.tracer))
    values.update({
        "live.frontend.recv_lag_ms_p50": live.percentiles(run.recv_lag_ms)[0],
        "live.frontend.queue_wait_ms_p50":
            live.percentiles(run.queue_wait_ms)[0],
        "live.frontend.flush_ms_p50": flush_p50,
        "live.frontend.flush_ms_p99": flush_p99,
        "live.frontend.batch_pkts_p50": live.percentiles(run.batch_pkts)[0],
        "live.frontend.lost_datagrams":
            max(0, run.sent - counted.packets_processed),
        "bench.gen.late_ms_p99": live.percentiles(run.late_ms)[1],
        "bench.trace_overhead_ratio": run.trace_overhead_ratio,
    })
    return finish(tally, values, tables.PER_LAYER)


def counted_by_the_program(pipeline, tracer: spans.Tracer
                           ) -> Dict[str, float]:
    """Layer metrics that are the pipeline's own counters, not timings."""
    counted = pipeline.metrics
    samples = counted.call_memory_samples
    return {
        "vids.classifier.malformed_count":
            counted.malformed_sip + counted.malformed_rtp
            + counted.malformed_rtcp,
        "efsm.clock.timers_fired": tracer.counts.get("timers_fired", 0),
        "vids.engine.alerts_raised": len(pipeline.alerts),
        "vids.factbase.peak_calls": counted.peak_concurrent_calls,
        "vids.factbase.state_bytes_per_call":
            sum(sip + rtp for sip, rtp in samples) / max(1, len(samples)),
        "vids.ids.time_regressions": counted.time_regressions,
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def finish(tally: Tally, values: Dict[str, float], table: dict) -> dict:
    """Every metric of ``table``, in its order, with its unit; a layer
    metric the workload never exercises reads 0."""
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": table[name][0]} for name in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(tables.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--min-repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--workdir", required=True,
                        help="existing scratch directory for the pcaps")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print its duration")
    parser.add_argument("--span-dump", default=None,
                        help="traced run: write the raw spans here (JSON)")
    args = parser.parse_args(argv)

    if args.workload == "live_loopback":
        result = run_live_workload(args)
    else:
        prepared = prepare(args.workload, args.seed, args.scale, args.workdir)
        SETUP_PROBE.stop()
        ended_ns = time.perf_counter_ns()
        prepared.raw_setup_s = (ended_ns - STARTED_NS) / 1e9
        prepared.setup_s = SETUP_PROBE.at_nominal(STARTED_NS, ended_ns,
                                                  prepared.raw_setup_s)
        if args.setup_only:
            result = {"setup_s": prepared.setup_s}
        elif args.trace:
            result = run_traced(prepared, args.seconds,
                                max(1, args.min_repeats // 2), args.span_dump)
        else:
            result = run_untraced(prepared, args.seconds, args.min_repeats)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
