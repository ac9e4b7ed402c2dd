"""Command-line interface: ``vids-repro`` (or ``python -m repro.cli``).

Subcommands:

- ``scenario`` — run the Section-7 experiment (paired with/without vids) and
  print the overhead table; optionally export the figure CSVs;
- ``attack-matrix`` — inject every threat-model attack and print the
  detection scoreboard;
- ``machines`` — print structural summaries (or Graphviz dot) of the vids
  protocol state machines;
- ``speclint`` — statically verify the machine specifications (per-machine
  rules plus cross-machine channel/deadlock analysis; docs/SPECCHECK.md)
  and exit non-zero on ERROR findings;
- ``trace`` — run a short scenario with a seeded attack under full
  observability and print the victim call's forensic timeline (classifier
  verdict → EFSM firings and δ channel messages → alert), with optional
  JSONL trace and Prometheus metrics export (docs/OBSERVABILITY.md);
- ``specdiff`` — read spec coverage and deviations off a trace export's
  fire events (docs/SPECCHECK.md);
- ``serve`` — bind real UDP sockets (passive tap) and feed received SIP/RTP
  traffic through the pipeline live, with graceful SIGTERM drain and an
  optional Prometheus metrics endpoint (docs/DEPLOYMENT.md);
- ``replay`` — decode a pcap/pcapng capture with the dependency-free codec
  and analyse it offline through the identical ingestion path
  (docs/DEPLOYMENT.md "Forensic replay").

Where time goes: ``trace --profile`` / ``vids_stage_seconds`` at run time,
``benchmarks/e2e/run.py --trace 1`` (the span ledger) at benchmark time,
``python -m cProfile -m repro.cli replay --pcap FILE`` per function.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _add_findings_flags(parser) -> None:
    """``--json/--strict/--min-severity`` of the two findings reporters."""
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON document")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on WARNING findings too")
    parser.add_argument("--min-severity",
                        choices=("info", "warning", "error"), default="info",
                        help="lowest severity to report (default info)")


def _add_topology_flags(parser) -> None:
    """``--shards/--supervise``: which tier ``build_pipeline`` builds."""
    parser.add_argument("--shards", type=int, default=1,
                        help="analysis shards (default 1: plain Vids; "
                             "docs/SCALING.md)")
    parser.add_argument("--supervise", action="store_true",
                        help="supervise the shards (checkpoint/restore, "
                             "health-checked failover, backpressure; "
                             "docs/ROBUSTNESS.md 'Supervision & failover')")


def build_parser() -> argparse.ArgumentParser:
    from .attacks import CATALOGUE

    parser = argparse.ArgumentParser(
        prog="vids-repro",
        description=("Reproduction of 'VoIP Intrusion Detection Through "
                     "Interacting Protocol State Machines' (DSN 2006)"))
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser(
        "scenario", help="run the paired with/without-vids experiment")
    scenario.add_argument("--horizon", type=float, default=1800.0,
                          help="simulated workload seconds (default 1800)")
    scenario.add_argument("--seed", type=int, default=3)
    scenario.add_argument("--phones", type=int, default=10,
                          help="phones per enterprise network")
    scenario.add_argument("--figures", metavar="DIR", default=None,
                          help="also export Figure 8/9/10 CSVs to DIR")

    matrix = sub.add_parser(
        "attack-matrix", help="inject every attack and report detection")
    matrix.add_argument("--seed", type=int, default=11)

    machines = sub.add_parser(
        "machines", help="describe the vids protocol state machines")
    machines.add_argument("--dot", action="store_true",
                          help="emit Graphviz dot instead of summaries")

    speclint = sub.add_parser(
        "speclint",
        help="statically verify the EFSM specifications (spec-lint)")
    _add_findings_flags(speclint)
    speclint.add_argument("--no-cross-protocol", action="store_true",
                          help="lint the cross_protocol=False ablation "
                               "machines instead")
    speclint.add_argument("--dot", metavar="DIR", default=None,
                          help="write per-machine Graphviz dot annotated "
                               "with the findings to DIR")

    specdiff = sub.add_parser(
        "specdiff",
        help="diff a trace's fire events against the hand-written specs")
    specdiff.add_argument("--jsonl", metavar="PATH", required=True,
                          help="trace export to read the firings from "
                               "(trace --jsonl PATH)")
    specdiff.add_argument("--machine", default=None,
                          choices=("sip", "rtp"),
                          help="diff only this machine (default: both)")
    _add_findings_flags(specdiff)
    specdiff.add_argument("--no-cross-protocol", action="store_true",
                          help="diff against the cross_protocol=False "
                               "ablation machines instead")

    trace = sub.add_parser(
        "trace",
        help="run a seeded attack scenario; print the forensic timeline")
    trace.add_argument("--attack", default="bye",
                       choices=(*CATALOGUE, "none"),
                       help="attack to seed into the workload (default bye)")
    trace.add_argument("--seed", type=int, default=11)
    trace.add_argument("--horizon", type=float, default=150.0,
                       help="simulated workload seconds (default 150)")
    trace.add_argument("--call-id", default=None,
                       help="call to render (default: the attack's victim, "
                            "else the first alerted call)")
    trace.add_argument("--all-calls", action="store_true",
                       help="render the full timeline, not one call")
    trace.add_argument("--limit", type=int, default=None,
                       help="print at most the last N timeline lines")
    trace.add_argument("--capacity", type=int, default=262_144,
                       help="trace ring-buffer capacity in events "
                            "(default 262144 — wide enough to keep the "
                            "whole default scenario)")
    trace.add_argument("--jsonl", metavar="PATH", default=None,
                       help="export the raw trace events as JSON Lines")
    trace.add_argument("--mean-duration", type=float, default=400.0,
                       help="mean call duration in seconds (default 400; "
                            "lower it below the horizon so teardown paths "
                            "appear in a specdiff corpus)")
    trace.add_argument("--metrics", metavar="PATH", default=None,
                       help="export the metrics registry as Prometheus text"
                            " ('-' for stdout)")
    trace.add_argument("--profile", action="store_true",
                       help="enable per-stage profiling and print the report")
    _add_topology_flags(trace)
    trace.add_argument("--kill-shard", type=int, default=None, metavar="I",
                       help="with --supervise: kill shard I mid-scenario "
                            "(at half the horizon) and let the supervisor "
                            "restore it from checkpoint")

    serve = sub.add_parser(
        "serve",
        help="feed the IDS from live UDP sockets (passive tap; "
             "docs/DEPLOYMENT.md)")
    serve.add_argument("--host", default="0.0.0.0",
                       help="address to bind (default 0.0.0.0)")
    serve.add_argument("--sip-port", type=int, default=5060,
                       help="UDP port to tap for SIP (default 5060; 0 binds "
                            "an ephemeral port and prints it)")
    serve.add_argument("--rtp-range", metavar="LO-HI", default=None,
                       help="inclusive UDP port range to tap for RTP/RTCP "
                            "(e.g. 20000-20019); default: none")
    _add_topology_flags(serve)
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve the Prometheus exposition on this TCP "
                            "port (0 for ephemeral; default: off)")
    serve.add_argument("--flush-interval", type=float, default=0.05,
                       help="seconds between batch flushes into the "
                            "pipeline (default 0.05)")
    serve.add_argument("--max-runtime", type=float, default=None,
                       metavar="SEC",
                       help="shut down (with drain) after SEC wall seconds "
                            "— for smoke tests; default: run until "
                            "SIGTERM/SIGINT")
    serve.add_argument("--metrics", metavar="PATH", default=None,
                       help="write the final Prometheus exposition to PATH "
                            "on exit ('-' for stdout)")

    replay = sub.add_parser(
        "replay",
        help="analyse a pcap/pcapng capture offline (docs/DEPLOYMENT.md)")
    replay.add_argument("--pcap", metavar="FILE", required=True,
                        help="pcap or pcapng capture to decode and analyse")
    _add_topology_flags(replay)
    replay.add_argument("--no-rebase", action="store_true",
                        help="keep original timestamps instead of rebasing "
                             "epoch captures to t=0")
    replay.add_argument("--json", action="store_true",
                        help="emit decode stats, counters, and alerts as "
                             "one JSON document")
    replay.add_argument("--metrics", metavar="PATH", default=None,
                        help="export the metrics registry as Prometheus "
                             "text ('-' for stdout)")

    return parser


def _cmd_scenario(args) -> int:
    from .analysis import export_all, format_table
    from .telephony import (ScenarioParams, TestbedParams, WorkloadParams,
                            run_scenario)

    workload = WorkloadParams(horizon=args.horizon)
    testbed = TestbedParams(seed=args.seed, phones_per_network=args.phones)
    print(f"running paired scenario ({args.horizon:.0f} s simulated, "
          f"seed {args.seed})...", file=sys.stderr)
    on = run_scenario(ScenarioParams(testbed=testbed, workload=workload,
                                     with_vids=True))
    off = run_scenario(ScenarioParams(testbed=testbed, workload=workload,
                                      with_vids=False))
    rows = [
        ("calls placed / answered",
         f"{off.placed_calls} / {off.answered_calls}",
         f"{on.placed_calls} / {on.answered_calls}"),
        ("mean setup delay",
         f"{off.mean_setup_delay * 1000:.1f} ms",
         f"{on.mean_setup_delay * 1000:.1f} ms"),
        ("mean RTP delay",
         f"{off.mean_rtp_delay * 1000:.2f} ms",
         f"{on.mean_rtp_delay * 1000:.2f} ms"),
        ("mean delay variation",
         f"{off.mean_rtp_delay_variation:.6f} s",
         f"{on.mean_rtp_delay_variation:.6f} s"),
        ("mean MOS (E-model)",
         f"{off.mean_mos:.2f}", f"{on.mean_mos:.2f}"),
        ("vids CPU", f"{off.cpu_utilization:.2%}",
         f"{on.cpu_utilization:.2%}"),
        ("alerts", "-", str(on.alerts_by_type() or 0)),
    ]
    print(format_table(("metric", "without vids", "with vids"), rows))
    if args.figures:
        paths = export_all(on, off, args.figures)
        for name, path in sorted(paths.items()):
            print(f"wrote {name}: {path}")
    return 0


def _cmd_attack_matrix(args) -> int:
    from .analysis import format_table
    from .attacks import CATALOGUE
    from .telephony import (ScenarioParams, TestbedParams, WorkloadParams,
                            run_scenario)

    workload = WorkloadParams(mean_interarrival=25.0, mean_duration=400.0,
                              horizon=150.0)
    rows = []
    detected = 0
    for label, (factory, expected) in CATALOGUE.items():
        attack = factory(40.0)
        result = run_scenario(ScenarioParams(
            testbed=TestbedParams(seed=args.seed, phones_per_network=4),
            workload=workload, with_vids=True, attacks=(attack,),
            drain_time=90.0))
        kinds = sorted({a.attack_type.value for a in result.vids.alerts})
        ok = attack.launched and expected.value in kinds
        detected += ok
        rows.append((label, "yes" if attack.launched else "NO TARGET",
                     expected.value, ", ".join(kinds) or "none"))
        print(f"  {label}: {'detected' if ok else 'MISSED'}",
              file=sys.stderr)
    print(format_table(("attack", "launched", "expected", "alerts"), rows))
    print(f"\ndetected {detected}/{len(CATALOGUE)}")
    return 0 if detected == len(CATALOGUE) else 1


def _spec_config(args):
    """The default config, or its ``--no-cross-protocol`` ablation."""
    from .vids import DEFAULT_CONFIG

    return DEFAULT_CONFIG.with_overrides(
        cross_protocol=not args.no_cross_protocol)


def _write_dots(directory: str, machines, diagnostics=None) -> None:
    """One ``<machine name>.dot`` per machine under ``directory``."""
    from .efsm.dot import to_dot

    os.makedirs(directory, exist_ok=True)
    for machine in machines:
        path = os.path.join(directory, f"{machine.name}.dot")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_dot(machine, diagnostics=diagnostics))
            handle.write("\n")
        print(f"wrote {path}", file=sys.stderr)


def _report_findings(args, diagnostics) -> int:
    """Print findings as text or JSON; returns the command's exit status."""
    from .efsm.diagnostics import (Severity, count_by_severity,
                                   diagnostics_to_dicts, format_report)

    min_severity = Severity[args.min_severity.upper()]
    if args.json:
        counts = count_by_severity(diagnostics)
        print(json.dumps({
            "findings": diagnostics_to_dicts(
                d for d in diagnostics if d.severity >= min_severity),
            "counts": {str(sev): n for sev, n in sorted(counts.items())},
        }, indent=2, sort_keys=True))
    else:
        print(format_report(diagnostics, min_severity=min_severity))
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if any(d.severity >= threshold for d in diagnostics) else 0


def _cmd_machines(args) -> int:
    from .efsm import summarize_machine, to_dot
    from .vids.spec import CallSpec

    for machine in CallSpec.build().machines:
        if args.dot:
            print(to_dot(machine))
        else:
            print(summarize_machine(machine))
        print()
    return 0


def _cmd_speclint(args) -> int:
    from .vids.spec import CallSpec

    spec = CallSpec.build(_spec_config(args))
    diagnostics = spec.diagnostics()
    status = _report_findings(args, diagnostics)
    if args.dot:
        _write_dots(args.dot, spec.machines, diagnostics)
    return status


def _cmd_trace(args) -> int:
    """Run one observed scenario and render the forensic timeline."""
    from .attacks import CATALOGUE
    from .obs import Observability
    from .telephony import (ScenarioParams, TestbedParams, WorkloadParams,
                            run_scenario)

    obs = Observability(profile=args.profile,
                        trace_capacity=args.capacity)
    attacks = (() if args.attack == "none"
               else (CATALOGUE[args.attack][0](40.0),))
    shard_fault_plan = None
    if args.kill_shard is not None:
        if not args.supervise:
            print("--kill-shard requires --supervise", file=sys.stderr)
            return 2
        from .netsim.faults import ShardFaultPlan
        shard_fault_plan = ShardFaultPlan(
            kills=((args.horizon / 2.0, args.kill_shard),))
    print(f"running observed scenario (attack={args.attack}, "
          f"seed {args.seed})...", file=sys.stderr)
    result = run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=args.seed, phones_per_network=4),
        workload=WorkloadParams(mean_interarrival=25.0,
                                mean_duration=args.mean_duration,
                                horizon=args.horizon),
        with_vids=True, attacks=attacks,
        drain_time=90.0, obs=obs,
        shards=args.shards, supervise=args.supervise,
        shard_fault_plan=shard_fault_plan))
    vids = result.vids

    call_id = args.call_id
    if call_id is None and not args.all_calls:
        if attacks and getattr(attacks[0], "victim_call_id", None):
            call_id = attacks[0].victim_call_id
        else:
            call_id = next(
                (a.call_id for a in vids.alerts if a.call_id), None)
    print(obs.timeline(call_id=call_id, limit=args.limit))

    trace = obs.trace
    print(f"\n{trace.emitted} events emitted ({trace.dropped} evicted from "
          f"the ring), {len(trace.call_ids())} calls traced, "
          f"{len(vids.alerts)} alerts", file=sys.stderr)

    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(trace.to_jsonl())
        print(f"wrote trace: {args.jsonl}", file=sys.stderr)
    if args.metrics:
        _write_prometheus(obs, args.metrics)
    if args.profile and obs.profiler is not None:
        print()
        print(obs.profiler.report())
    return 0


def _load_export(path: str):
    """Parse a trace JSONL file, surfacing ring truncation loudly."""
    from .obs import from_jsonl

    with open(path, "r", encoding="utf-8") as handle:
        export = from_jsonl(handle.read())
    if export.truncated:
        print(f"warning: export reports {export.dropped} events evicted "
              "from the trace ring before the dump; the coverage it shows "
              "is a lower bound", file=sys.stderr)
    return export


def _cmd_specdiff(args) -> int:
    """Diff a trace's fire events against the hand-written specifications."""
    from .efsm.specdiff import specdiff
    from .vids.spec import CallSpec

    spec = CallSpec.build(_spec_config(args))
    specs = {"sip": spec.sip, "rtp": spec.rtp}

    events = _load_export(args.jsonl).events
    fired = {event.data.get("machine") for event in events
             if event.kind == "fire"}
    names = [args.machine] if args.machine else sorted(fired & set(specs))
    diagnostics = []
    for name in names:
        if name not in fired:
            print(f"no fire events for machine {name!r} in {args.jsonl}",
                  file=sys.stderr)
            return 2
        diagnostics.extend(specdiff(events, specs[name]))
    return _report_findings(args, diagnostics)


def _parse_port_range(text: Optional[str]) -> List[int]:
    """``"20000-20019"`` → the inclusive port list; a bare port is itself."""
    if not text:
        return []
    lo, _, hi = text.partition("-")
    first = int(lo)
    last = int(hi) if hi else first
    if not (0 < first <= last <= 65_535):
        raise ValueError(text)
    return list(range(first, last + 1))


def _write_prometheus(obs, path: str) -> None:
    text = obs.registry.to_prometheus()
    if path == "-":
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote metrics: {path}", file=sys.stderr)


def _print_alerts(alerts) -> None:
    print(f"{len(alerts)} alerts")
    for alert in alerts:
        where = alert.machine or "-"
        if alert.state:
            where += f"/{alert.state}"
        print(f"  t={alert.time:9.3f}  {alert.attack_type.value:<18} "
              f"call={alert.call_id or '-'} src={alert.source or '-'} "
              f"dst={alert.destination or '-'}  [{where}]")


def _cmd_serve(args) -> int:
    """Run the live UDP front-end until SIGTERM, then drain gracefully."""
    import asyncio
    import signal

    from .live import UdpFrontend, build_pipeline
    from .obs import Observability

    try:
        rtp_ports = _parse_port_range(args.rtp_range)
    except ValueError:
        print(f"serve: bad --rtp-range {args.rtp_range!r} (want LO-HI)",
              file=sys.stderr)
        return 2
    obs = Observability()
    pipeline, clock = build_pipeline(shards=args.shards,
                                     supervise=args.supervise, obs=obs)
    frontend = UdpFrontend(pipeline, clock, host=args.host,
                           sip_port=args.sip_port, rtp_ports=rtp_ports,
                           flush_interval=args.flush_interval, obs=obs,
                           metrics_port=args.metrics_port)

    async def run() -> None:
        await frontend.start()
        where = f"sip {args.host}:{frontend.sip_port}"
        if frontend.rtp_ports:
            where += (f", rtp {frontend.rtp_ports[0]}-"
                      f"{frontend.rtp_ports[-1]} "
                      f"({len(frontend.rtp_ports)} ports)")
        if frontend.metrics_port is not None:
            where += (f", metrics http://{args.host}:"
                      f"{frontend.metrics_port}/metrics")
        topology = "1 vids"
        if args.supervise:
            topology = f"{max(args.shards, 1)} supervised shards"
        elif args.shards > 1:
            topology = f"{args.shards} shards"
        print(f"listening: {where} -> {topology} "
              f"(SIGTERM drains and exits)", file=sys.stderr)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, frontend.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        if args.max_runtime is not None:
            loop.call_later(args.max_runtime, frontend.request_shutdown)
        await frontend.serve_forever()
        print("shutting down: flushing queue, resolving timers...",
              file=sys.stderr)
        await frontend.stop(drain=True)

    asyncio.run(run())
    live = frontend.metrics
    metrics = pipeline.metrics
    print(f"received {live.datagrams_received} datagrams "
          f"({live.bytes_received} bytes, {live.batches_flushed} batches); "
          f"analysed {metrics.packets_processed} packets "
          f"({metrics.sip_messages} SIP, {metrics.rtp_packets} RTP, "
          f"{metrics.keepalive_packets} keepalives), "
          f"{metrics.calls_created} calls")
    _print_alerts(pipeline.alerts)
    if args.metrics:
        _write_prometheus(obs, args.metrics)
    return 0


def _cmd_replay(args) -> int:
    """Decode a capture file and analyse it through the vids pipeline."""
    from .live import replay_pcap
    from .live.pcap import DecodeStats, PcapError
    from .obs import Observability

    obs = Observability() if args.metrics else None
    stats = DecodeStats()
    try:
        pipeline = replay_pcap(args.pcap, obs=obs, shards=args.shards,
                               supervise=args.supervise,
                               rebase=False if args.no_rebase else "auto",
                               stats=stats)
    except (OSError, PcapError) as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    metrics = pipeline.metrics
    if args.json:
        print(json.dumps({
            "decode": stats.as_dict(),
            "metrics": metrics.summary(),
            "alerts": [{**vars(a), "attack_type": a.attack_type.value}
                       for a in pipeline.alerts],
        }, indent=2, sort_keys=True, default=str))
    else:
        print(f"decoded {stats.udp_datagrams} UDP datagrams from "
              f"{args.pcap} ({stats.frames_read} frames, "
              f"{stats.fragments_reassembled} reassembled, "
              f"{stats.decode_errors} decode errors, "
              f"{stats.truncated_frames} truncated)")
        print(f"analysed {metrics.packets_processed} packets "
              f"({metrics.sip_messages} SIP, {metrics.rtp_packets} RTP, "
              f"{metrics.keepalive_packets} keepalives, "
              f"{metrics.malformed_packets} malformed), "
              f"{metrics.calls_created} calls, "
              f"{metrics.time_regressions} time regressions")
        _print_alerts(pipeline.alerts)
    if args.metrics:
        _write_prometheus(obs, args.metrics)
    return 0


_COMMANDS = {
    "scenario": _cmd_scenario, "attack-matrix": _cmd_attack_matrix,
    "machines": _cmd_machines, "speclint": _cmd_speclint,
    "trace": _cmd_trace, "specdiff": _cmd_specdiff,
    "serve": _cmd_serve, "replay": _cmd_replay,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
