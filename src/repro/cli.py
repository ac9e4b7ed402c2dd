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
- ``perf`` — cProfile a synthetic N-call SIP+RTP workload through the full
  vids pipeline and print the top-K cumulative hotspots
  (docs/PERFORMANCE.md);
- ``trace`` — run a short scenario with a seeded attack under full
  observability and print the victim call's forensic timeline (classifier
  verdict → EFSM firings and δ channel messages → alert), with optional
  JSONL trace and Prometheus metrics export (docs/OBSERVABILITY.md);
- ``serve`` — bind real UDP sockets (passive tap) and feed received SIP/RTP
  traffic through the pipeline live, with graceful SIGTERM drain and an
  optional Prometheus metrics endpoint (docs/DEPLOYMENT.md);
- ``replay`` — decode a pcap/pcapng capture with the dependency-free codec
  and analyse it offline through the identical ingestion path
  (docs/DEPLOYMENT.md "Forensic replay").
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
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
    speclint.add_argument("--json", action="store_true",
                          help="emit findings as a JSON document")
    speclint.add_argument("--strict", action="store_true",
                          help="exit non-zero on WARNING findings too")
    speclint.add_argument("--min-severity", choices=("info", "warning",
                                                     "error"),
                          default="info",
                          help="lowest severity to report (default info)")
    speclint.add_argument("--no-cross-protocol", action="store_true",
                          help="lint the cross_protocol=False ablation "
                               "machines instead")
    speclint.add_argument("--dot", metavar="DIR", default=None,
                          help="write per-machine Graphviz dot annotated "
                               "with the findings to DIR")

    mine = sub.add_parser(
        "mine",
        help="learn EFSMs from a trace JSONL export (docs/MINING.md)")
    mine.add_argument("--jsonl", metavar="PATH", required=True,
                      help="trace export to learn from "
                           "(trace --trace-variables --jsonl PATH)")
    mine.add_argument("--machine", default=None,
                      help="mine only this machine (default: every machine "
                           "with training sequences)")
    mine.add_argument("--k", type=int, default=2,
                      help="k-tails merging depth (default 2)")
    mine.add_argument("--include-attacks", action="store_true",
                      help="keep calls with attack firings in the training "
                           "corpus (default: exclude them)")
    mine.add_argument("--json", action="store_true",
                      help="emit machine and corpus summaries as JSON")
    mine.add_argument("--dot", metavar="DIR", default=None,
                      help="write each mined machine as Graphviz dot to DIR")
    mine.add_argument("--strict", action="store_true",
                      help="exit non-zero when any training sequence fails "
                           "to replay or the corpus had truncated calls")

    specdiff = sub.add_parser(
        "specdiff",
        help="diff mined machines against the hand-written specs")
    specdiff.add_argument("--jsonl", metavar="PATH", required=True,
                          help="trace export to mine the learned side from")
    specdiff.add_argument("--machine", default=None,
                          choices=("sip", "rtp"),
                          help="diff only this machine (default: both)")
    specdiff.add_argument("--k", type=int, default=2,
                          help="k-tails merging depth (default 2)")
    specdiff.add_argument("--json", action="store_true",
                          help="emit findings as a JSON document")
    specdiff.add_argument("--strict", action="store_true",
                          help="exit non-zero on WARNING findings too")
    specdiff.add_argument("--min-severity", choices=("info", "warning",
                                                     "error"),
                          default="info",
                          help="lowest severity to report (default info)")
    specdiff.add_argument("--no-cross-protocol", action="store_true",
                          help="diff against the cross_protocol=False "
                               "ablation machines instead")

    codelint = sub.add_parser(
        "codelint",
        help="statically verify implementation invariants (checkpoint "
             "coverage, guard purity, shard isolation)")
    codelint.add_argument("--json", action="store_true",
                          help="emit findings as a JSON document")
    codelint.add_argument("--strict", action="store_true",
                          help="exit non-zero on new WARNING findings too")
    codelint.add_argument("--min-severity", choices=("info", "warning",
                                                     "error"),
                          default="info",
                          help="lowest severity to report (default info)")
    codelint.add_argument("--baseline", metavar="FILE", default=None,
                          help="baseline JSON of accepted findings "
                               "(default tools/codelint_baseline.json next "
                               "to the repo, if present)")
    codelint.add_argument("--no-baseline", action="store_true",
                          help="ignore any baseline: every finding counts")
    codelint.add_argument("--write-baseline", action="store_true",
                          help="accept all current findings into the "
                               "baseline file and exit 0")
    codelint.add_argument("--root", metavar="DIR", default=None,
                          help="package source root to analyze (default: "
                               "the installed repro package)")

    perf = sub.add_parser(
        "perf", help="profile a synthetic workload; print the hotspots")
    perf.add_argument("--calls", type=int, default=200,
                      help="calls to set up and analyze (default 200)")
    perf.add_argument("--rtp-per-call", type=int, default=50,
                      help="RTP packets injected per call (default 50)")
    perf.add_argument("--top", type=int, default=25,
                      help="hotspot rows to print (default 25)")
    perf.add_argument("--sort", choices=("cumulative", "tottime"),
                      default="cumulative",
                      help="hotspot sort order (default cumulative)")
    perf.add_argument("--raw", action="store_true",
                      help="also print the raw pstats table (the default "
                           "output is the stage rollup + stage-tagged "
                           "hotspot listing)")
    perf.add_argument("--shards", type=int, default=1,
                      help="profile through a ShardedVids facade with N "
                           "analysis shards (default 1: plain Vids; "
                           "docs/SCALING.md)")
    perf.add_argument("--supervise", action="store_true",
                      help="put the shards under a ShardSupervisor with "
                           "checkpointing on (docs/ROBUSTNESS.md "
                           "'Supervision & failover')")
    perf.add_argument("--checkpoint-cadence", type=int, default=None,
                      metavar="N",
                      help="with --supervise: checkpoint every N packets "
                           "per member (default from ClusterConfig)")

    trace = sub.add_parser(
        "trace",
        help="run a seeded attack scenario; print the forensic timeline")
    trace.add_argument("--attack", default="bye",
                       choices=("bye", "bye-spoof", "cancel", "hijack",
                                "toll-fraud", "media-spam", "rtp-flood",
                                "invite-flood", "none"),
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
                            "appear in mined corpora)")
    trace.add_argument("--trace-variables", action="store_true",
                       help="attach bounded args/vars snapshots to fire "
                            "events (feeds 'mine' guard synthesis; "
                            "docs/MINING.md)")
    trace.add_argument("--metrics", metavar="PATH", default=None,
                       help="export the metrics registry as Prometheus text"
                            " ('-' for stdout)")
    trace.add_argument("--profile", action="store_true",
                       help="enable per-stage profiling and print the report")
    trace.add_argument("--shards", type=int, default=1,
                       help="run the scenario's IDS as a ShardedVids facade "
                            "with N analysis shards (default 1; "
                            "docs/SCALING.md)")
    trace.add_argument("--supervise", action="store_true",
                       help="supervise the shards (checkpoint/restore, "
                            "health-checked failover, backpressure; "
                            "docs/ROBUSTNESS.md 'Supervision & failover')")
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
    serve.add_argument("--shards", type=int, default=1,
                       help="analysis shards (default 1; docs/SCALING.md)")
    serve.add_argument("--supervise", action="store_true",
                       help="supervise the shards (checkpoint/restore, "
                            "failover; docs/ROBUSTNESS.md)")
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
    replay.add_argument("--shards", type=int, default=1,
                        help="analysis shards (default 1)")
    replay.add_argument("--supervise", action="store_true",
                        help="run the shards under a supervisor")
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
    from .attacks import (ByeTeardownAttack, CallHijackAttack,
                          CancelDosAttack, DrdosReflectionAttack,
                          InviteFloodAttack, MediaSpamAttack,
                          RegistrationHijackAttack, RtpFloodAttack,
                          TollFraudAttack)
    from .telephony import (ScenarioParams, TestbedParams, WorkloadParams,
                            run_scenario)

    workload = WorkloadParams(mean_interarrival=25.0, mean_duration=400.0,
                              horizon=150.0)
    attacks = [
        InviteFloodAttack(40.0, count=20),
        ByeTeardownAttack(40.0, spoof="none"),
        ByeTeardownAttack(40.0, spoof="peer"),
        CancelDosAttack(40.0),
        CallHijackAttack(40.0),
        TollFraudAttack(40.0),
        MediaSpamAttack(40.0),
        RtpFloodAttack(40.0, mode="flood"),
        RtpFloodAttack(40.0, mode="codec"),
        DrdosReflectionAttack(40.0, count=20),
        RegistrationHijackAttack(40.0),
    ]
    rows = []
    detected = 0
    for attack in attacks:
        result = run_scenario(ScenarioParams(
            testbed=TestbedParams(seed=args.seed, phones_per_network=4),
            workload=workload, with_vids=True, attacks=(attack,),
            drain_time=90.0))
        kinds = sorted({a.attack_type.value for a in result.vids.alerts})
        ok = attack.launched and bool(kinds)
        detected += ok
        label = attack.name
        if hasattr(attack, "mode"):
            label += f" ({attack.mode})"
        elif hasattr(attack, "spoof"):
            label += f" (spoof={attack.spoof})"
        rows.append((label, "yes" if attack.launched else "NO TARGET",
                     ", ".join(kinds) if kinds else "NOT DETECTED"))
        print(f"  {label}: {'detected' if ok else 'MISSED'}",
              file=sys.stderr)
    print(format_table(("attack", "launched", "alerts"), rows))
    print(f"\ndetected {detected}/{len(attacks)}")
    return 0 if detected == len(attacks) else 1


def _cmd_machines(args) -> int:
    from .efsm import summarize_machine, to_dot
    from .vids import build_rtp_machine, build_sip_machine
    from .vids.patterns import build_invite_flood_machine, \
        build_media_spam_machine

    machines = [
        build_sip_machine(),
        build_rtp_machine(),
        build_invite_flood_machine(5, 1.0),
        build_media_spam_machine(50, 160_000),
    ]
    for machine in machines:
        if args.dot:
            print(to_dot(machine))
        else:
            print(summarize_machine(machine))
        print()
    return 0


def _cmd_speclint(args) -> int:
    import json
    import os

    from .efsm.diagnostics import (Severity, count_by_severity,
                                   diagnostics_to_dicts, format_report)
    from .efsm.dot import to_dot
    from .vids.config import DEFAULT_CONFIG
    from .vids.speclint import verify_vids_specs

    config = DEFAULT_CONFIG
    if args.no_cross_protocol:
        config = config.with_overrides(cross_protocol=False)
    diagnostics = verify_vids_specs(config)
    min_severity = {"info": Severity.INFO, "warning": Severity.WARNING,
                    "error": Severity.ERROR}[args.min_severity]
    if args.json:
        counts = count_by_severity(diagnostics)
        print(json.dumps({
            "findings": diagnostics_to_dicts(
                d for d in diagnostics if d.severity >= min_severity),
            "counts": {str(sev): n for sev, n in sorted(counts.items())},
        }, indent=2, sort_keys=True))
    else:
        print(format_report(diagnostics, min_severity=min_severity))
    if args.dot:
        from .vids.patterns import (build_invite_flood_machine,
                                    build_media_spam_machine)
        from .vids.rtp_machine import build_rtp_machine
        from .vids.sip_machine import build_sip_machine
        os.makedirs(args.dot, exist_ok=True)
        machines = [
            build_sip_machine(config),
            build_rtp_machine(config),
            build_invite_flood_machine(config.invite_flood_threshold,
                                       config.invite_flood_window),
            build_media_spam_machine(config.media_spam_seq_gap,
                                     config.media_spam_ts_gap),
        ]
        for machine in machines:
            path = os.path.join(args.dot, f"{machine.name}.dot")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(to_dot(machine, diagnostics=diagnostics))
                handle.write("\n")
            print(f"wrote {path}", file=sys.stderr)
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if any(d.severity >= threshold for d in diagnostics) else 0


def _cmd_codelint(args) -> int:
    """Run the static implementation-invariant analyzer (codelint).

    Exit status is driven by *new* findings only: anything recorded in the
    committed baseline file is reported but tolerated, so CI fails when a
    change introduces a finding, not because history had one.
    """
    import json
    from pathlib import Path

    from .analysis.codecheck import (analyze, fingerprint, load_baseline,
                                     partition_findings, write_baseline)
    from .efsm.diagnostics import (Severity, count_by_severity,
                                   diagnostics_to_dicts, format_report)

    root = Path(args.root) if args.root else None
    diagnostics = analyze(root=root)

    baseline_path = None
    if not args.no_baseline:
        if args.baseline:
            baseline_path = Path(args.baseline)
        else:
            # repo layout: src/repro/cli.py -> <repo>/tools/...
            candidate = (Path(__file__).resolve().parents[2]
                         / "tools" / "codelint_baseline.json")
            if candidate.is_file() or args.write_baseline:
                baseline_path = candidate
    if args.write_baseline:
        if baseline_path is None:
            print("codelint: --write-baseline needs --baseline FILE",
                  file=sys.stderr)
            return 2
        write_baseline(baseline_path, diagnostics)
        print(f"codelint: wrote {len(diagnostics)} finding(s) to "
              f"{baseline_path}")
        return 0
    baseline = load_baseline(baseline_path) if baseline_path else {}
    new, accepted, stale = partition_findings(diagnostics, baseline)

    min_severity = {"info": Severity.INFO, "warning": Severity.WARNING,
                    "error": Severity.ERROR}[args.min_severity]
    if args.json:
        counts = count_by_severity(diagnostics)
        print(json.dumps({
            "findings": diagnostics_to_dicts(
                d for d in diagnostics if d.severity >= min_severity),
            "new": [fingerprint(d) for d in new],
            "baselined": [fingerprint(d) for d in accepted],
            "stale_baseline": stale,
            "counts": {str(sev): n for sev, n in sorted(counts.items())},
        }, indent=2, sort_keys=True))
    else:
        print(format_report(diagnostics, min_severity=min_severity,
                            label="codelint"))
        if accepted:
            print(f"codelint: {len(accepted)} finding(s) accepted by "
                  f"baseline {baseline_path}")
        for print_ in stale:
            print(f"codelint: stale baseline entry (no longer fires): "
                  f"{print_}", file=sys.stderr)
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if any(d.severity >= threshold for d in new) else 0


#: Pipeline stages for the ``perf`` rollup, in datagram order.  A profiled
#: function belongs to the first stage whose path fragment matches; stdlib
#: frames and the synthetic workload itself land in "harness/other".
_PERF_STAGES = (
    ("classify", ("vids/classifier.py",)),
    ("sip-parse", ("sip/message.py", "sip/headers.py", "sip/uri.py",
                   "sip/sdp.py", "sip/constants.py", "sip/errors.py")),
    ("rtp-parse", ("rtp/",)),
    ("distribute", ("vids/distributor.py",)),
    ("state-machines", ("vids/sip_machine.py", "vids/rtp_machine.py",
                        "efsm/")),
    ("factbase", ("vids/factbase.py",)),
    ("flood-tracking", ("vids/patterns/",)),
    ("engine", ("vids/ids.py", "vids/engine.py", "vids/alerts.py",
                "vids/metrics.py")),
    ("sharding", ("vids/sharding.py", "vids/cluster.py", "vids/sync.py")),
)


def _perf_stage_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for stage, fragments in _PERF_STAGES:
        if any(f"repro/{fragment}" in path for fragment in fragments):
            return stage
    return "harness/other"


def _print_stage_hotspots(profile, top: int, sort: str) -> None:
    """Per-stage rollup + stage-tagged hotspot rows from a cProfile run.

    Own (tottime) seconds sum to the total runtime, so the rollup answers
    "which stage is the bottleneck" directly; the hotspot rows below it
    answer "which function inside that stage" without a raw pstats dump.
    """
    import pstats

    entries = []  # (stage, func label, primitive calls, own_s, cum_s)
    own_per_stage: dict = {}
    for (filename, line, funcname), (calls, _nc, tottime, cumtime, _callers) \
            in pstats.Stats(profile).stats.items():
        stage = _perf_stage_of(filename)
        base = filename.replace("\\", "/").rsplit("/", 1)[-1]
        label = funcname if base == "~" else f"{funcname} ({base}:{line})"
        entries.append((stage, label, calls, tottime, cumtime))
        own_per_stage[stage] = own_per_stage.get(stage, 0.0) + tottime

    total = sum(own_per_stage.values()) or 1.0
    print("stage rollup (own time; sums to total):")
    for stage, seconds in sorted(own_per_stage.items(),
                                 key=lambda item: -item[1]):
        print(f"  {stage:<16} {seconds:8.3f}s  {seconds / total:6.1%}")

    key = 4 if sort == "cumulative" else 3
    entries.sort(key=lambda entry: -entry[key])
    order = "cumulative" if sort == "cumulative" else "own"
    print(f"\ntop {top} hotspots by {order} time:")
    print(f"  {'cum_s':>8}  {'own_s':>8}  {'calls':>9}  "
          f"{'stage':<16} function")
    for stage, label, calls, own, cum in entries[:top]:
        print(f"  {cum:8.3f}  {own:8.3f}  {calls:9d}  {stage:<16} {label}")


def _cmd_perf(args) -> int:
    """cProfile the packet pipeline on a synthetic SIP+RTP workload.

    The workload mirrors the throughput benchmarks: each synthetic call is
    one INVITE-with-SDP through the classifier/distributor/SIP machine,
    followed by a burst of in-session RTP packets through the media fast
    path — so the printed hotspots are the ones that matter for the
    steady-state analysis rate.
    """
    import cProfile
    import pstats

    from .netsim import Datagram, Endpoint
    from .rtp import RtpPacket
    from .sip import SipRequest
    from .vids import DEFAULT_CLUSTER_CONFIG, build_pipeline

    sdp = ("v=0\r\no=- 1 1 IN IP4 10.1.0.11\r\ns=c\r\n"
           "c=IN IP4 10.1.0.11\r\nt=0 0\r\nm=audio {port} RTP/AVP 18\r\n"
           "a=rtpmap:18 G729/8000\r\n")
    cluster = DEFAULT_CLUSTER_CONFIG
    if args.checkpoint_cadence is not None:
        cluster = cluster.with_overrides(
            checkpoint_cadence=args.checkpoint_cadence)
    vids, clock = build_pipeline(shards=args.shards, supervise=args.supervise,
                                 cluster=cluster)

    def workload() -> None:
        # Each call: one INVITE-with-SDP, then the RTP burst through the
        # batched ingestion path (the sharded facade's bulk entry point;
        # for plain Vids it is the same per-packet loop).
        for index in range(args.calls):
            port = 20_000 + 2 * (index % 1000)
            invite = SipRequest("INVITE", "sip:bob@b.example.com",
                                body=sdp.format(port=port))
            invite.set("Via",
                       "SIP/2.0/UDP 10.1.0.1:5060;branch=z9hG4bKp%d" % index)
            invite.set("From", "<sip:alice@a.example.com>;tag=pf%d" % index)
            invite.set("To", "<sip:u%d@b.example.com>" % index)
            invite.set("Call-ID", f"perf-{index}@cli")
            invite.set("CSeq", "1 INVITE")
            invite.set("Contact", "<sip:alice@10.1.0.11:5060>")
            invite.set("Content-Type", "application/sdp")
            clock.advance(0.01)
            vids.process(Datagram(Endpoint("10.1.0.1", 5060),
                                  Endpoint("10.2.0.1", 5060),
                                  invite.serialize()), clock.now())
            base = clock.now()
            burst = []
            for seq in range(args.rtp_per_call):
                packet = RtpPacket(18, seq + 1, (seq + 1) * 160,
                                   0xAA00 + index, payload=bytes(20))
                burst.append((Datagram(Endpoint("10.2.0.11", 30_000),
                                       Endpoint("10.1.0.11", port),
                                       packet.serialize()),
                              base + 0.02 * (seq + 1)))
            vids.process_batch(burst, clock=clock)

    profile = cProfile.Profile()
    profile.enable()
    workload()
    profile.disable()

    packets = args.calls * (1 + args.rtp_per_call)
    shard_note = f", {args.shards} shards" if args.shards > 1 else ""
    if args.supervise:
        cadence = (args.checkpoint_cadence
                   if args.checkpoint_cadence is not None
                   else DEFAULT_CLUSTER_CONFIG.checkpoint_cadence)
        shard_note += f", supervised (checkpoint every {cadence})"
    print(f"profiled {args.calls} calls / {packets} packets{shard_note} "
          f"({vids.metrics.sip_messages} SIP, {vids.metrics.rtp_packets} RTP "
          f"analyzed, {len(vids.alerts)} alerts)\n")
    _print_stage_hotspots(profile, args.top, args.sort)
    if args.raw:
        print()
        stats = pstats.Stats(profile, stream=sys.stdout)
        stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


def _cmd_trace(args) -> int:
    """Run one observed scenario and render the forensic timeline."""
    from .attacks import (ByeTeardownAttack, CallHijackAttack,
                          CancelDosAttack, InviteFloodAttack,
                          MediaSpamAttack, RtpFloodAttack, TollFraudAttack)
    from .obs import Observability
    from .telephony import (ScenarioParams, TestbedParams, WorkloadParams,
                            run_scenario)

    factories = {
        "bye": lambda: ByeTeardownAttack(40.0, spoof="none"),
        "bye-spoof": lambda: ByeTeardownAttack(40.0, spoof="peer"),
        "cancel": lambda: CancelDosAttack(40.0),
        "hijack": lambda: CallHijackAttack(40.0),
        "toll-fraud": lambda: TollFraudAttack(40.0),
        "media-spam": lambda: MediaSpamAttack(40.0),
        "rtp-flood": lambda: RtpFloodAttack(40.0, mode="flood"),
        "invite-flood": lambda: InviteFloodAttack(40.0, count=20),
        "none": None,
    }
    obs = Observability(profile=args.profile,
                        trace_capacity=args.capacity)
    from .vids.config import DEFAULT_CONFIG
    vids_config = DEFAULT_CONFIG
    if args.trace_variables:
        vids_config = vids_config.with_overrides(trace_variables=True)
    factory = factories[args.attack]
    attacks = (factory(),) if factory is not None else ()
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
        with_vids=True, vids_config=vids_config, attacks=attacks,
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
        text = obs.registry.to_prometheus()
        if args.metrics == "-":
            print(text, end="")
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote metrics: {args.metrics}", file=sys.stderr)
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
              "from the trace ring before the dump; calls with a truncated "
              "head are excluded from training", file=sys.stderr)
    return export


def _cmd_mine(args) -> int:
    """Learn EFSMs from a trace export and report the evidence."""
    import json
    import os

    from .efsm.dot import to_dot
    from .efsm.mine import extract_corpus, mine_machine, replay_sequence

    export = _load_export(args.jsonl)
    corpus = extract_corpus(export, include_attacks=args.include_attacks)
    if args.machine is not None and args.machine not in corpus.sequences:
        print(f"no training sequences for machine {args.machine!r} "
              f"(available: {', '.join(corpus.machines()) or 'none'})",
              file=sys.stderr)
        return 2
    names = [args.machine] if args.machine else corpus.machines()
    mined = {name: mine_machine(corpus.sequences[name], name, k=args.k)
             for name in names}

    replay_failures = 0
    replays = {}
    for name, machine in mined.items():
        deviations = 0
        for sequence in corpus.sequences[name]:
            deviations += sum(
                1 for r in replay_sequence(machine.efsm, sequence)
                if r.transition is None)
        replays[name] = deviations
        replay_failures += deviations

    if args.json:
        print(json.dumps({
            "corpus": corpus.summary(),
            "machines": {name: machine.summary()
                         for name, machine in mined.items()},
            "replay_deviations": replays,
        }, indent=2, sort_keys=True))
    else:
        summary = corpus.summary()
        print(f"corpus: {summary['calls_trained']} calls trained of "
              f"{summary['calls_seen']} seen "
              f"({summary['calls_truncated']} truncated, "
              f"{summary['calls_excluded_attack']} attack-labelled)")
        for name, machine in mined.items():
            info = machine.summary()
            print(f"{name}: {info['states']} states, "
                  f"{info['transitions']} transitions "
                  f"({info['guarded_transitions']} guarded) from "
                  f"{info['sequences']} sequences / {info['steps']} steps; "
                  f"replay deviations: {replays[name]}")
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        for name, machine in mined.items():
            path = os.path.join(args.dot, f"{machine.efsm.name}.dot")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(to_dot(machine.efsm))
                handle.write("\n")
            print(f"wrote {path}", file=sys.stderr)
    if args.strict and (replay_failures or corpus.calls_truncated):
        return 1
    return 0


def _cmd_specdiff(args) -> int:
    """Diff mined machines against the hand-written specifications."""
    import json

    from .efsm.diagnostics import (Severity, count_by_severity,
                                   diagnostics_to_dicts, format_report)
    from .efsm.mine import extract_corpus, mine_machine
    from .efsm.specdiff import specdiff
    from .vids.config import DEFAULT_CONFIG
    from .vids.rtp_machine import build_rtp_machine
    from .vids.sip_machine import build_sip_machine

    config = DEFAULT_CONFIG
    if args.no_cross_protocol:
        config = config.with_overrides(cross_protocol=False)
    specs = {"sip": build_sip_machine(config),
             "rtp": build_rtp_machine(config)}

    export = _load_export(args.jsonl)
    corpus = extract_corpus(export)
    names = [args.machine] if args.machine else sorted(
        set(corpus.machines()) & set(specs))
    diagnostics = []
    for name in names:
        sequences = corpus.sequences.get(name)
        if not sequences:
            print(f"no training sequences for machine {name!r}; "
                  "did the trace run with --trace-variables and a benign "
                  "workload?", file=sys.stderr)
            return 2
        mined = mine_machine(sequences, name, k=args.k)
        diagnostics.extend(specdiff(mined, specs[name]))

    min_severity = {"info": Severity.INFO, "warning": Severity.WARNING,
                    "error": Severity.ERROR}[args.min_severity]
    if args.json:
        counts = count_by_severity(diagnostics)
        print(json.dumps({
            "findings": diagnostics_to_dicts(
                d for d in diagnostics if d.severity >= min_severity),
            "counts": {str(sev): n for sev, n in sorted(counts.items())},
            "corpus": corpus.summary(),
        }, indent=2, sort_keys=True))
    else:
        print(format_report(diagnostics, min_severity=min_severity))
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if any(d.severity >= threshold for d in diagnostics) else 0


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
    for alert in alerts:
        where = alert.machine or "-"
        if alert.state:
            where += f"/{alert.state}"
        print(f"  t={alert.time:9.3f}  {alert.attack_type.value:<18} "
              f"call={alert.call_id or '-'} src={alert.source or '-'} "
              f"dst={alert.destination or '-'}  [{where}]")


def _alert_dict(alert) -> dict:
    return {"time": alert.time, "attack_type": alert.attack_type.value,
            "call_id": alert.call_id, "source": alert.source,
            "destination": alert.destination, "machine": alert.machine,
            "state": alert.state, "detail": alert.detail}


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
    print(f"{len(pipeline.alerts)} alerts")
    _print_alerts(pipeline.alerts)
    if args.metrics:
        _write_prometheus(obs, args.metrics)
    return 0


def _cmd_replay(args) -> int:
    """Decode a capture file and analyse it through the vids pipeline."""
    import json

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
            "alerts": [_alert_dict(a) for a in pipeline.alerts],
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
        print(f"{len(pipeline.alerts)} alerts")
        _print_alerts(pipeline.alerts)
    if args.metrics:
        _write_prometheus(obs, args.metrics)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "attack-matrix":
        return _cmd_attack_matrix(args)
    if args.command == "machines":
        return _cmd_machines(args)
    if args.command == "speclint":
        return _cmd_speclint(args)
    if args.command == "codelint":
        return _cmd_codelint(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "mine":
        return _cmd_mine(args)
    if args.command == "specdiff":
        return _cmd_specdiff(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "replay":
        return _cmd_replay(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
