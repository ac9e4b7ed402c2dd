"""CLI tests for the vids-repro entry point."""

import argparse
import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario"])
        assert args.command == "scenario"
        assert args.horizon == 1800.0
        assert args.seed == 3
        assert args.figures is None

    def test_scenario_options(self):
        args = build_parser().parse_args(
            ["scenario", "--horizon", "600", "--seed", "9",
             "--phones", "4", "--figures", "/tmp/figs"])
        assert args.horizon == 600.0
        assert args.seed == 9
        assert args.phones == 4
        assert args.figures == "/tmp/figs"

    def test_machines_flags(self):
        args = build_parser().parse_args(["machines", "--dot"])
        assert args.command == "machines" and args.dot

    def test_speclint_defaults(self):
        args = build_parser().parse_args(["speclint"])
        assert args.command == "speclint"
        assert args.min_severity == "info"
        assert not args.json and not args.strict
        assert not args.no_cross_protocol and args.dot is None

    def test_trace_mean_duration_flag(self):
        args = build_parser().parse_args(["trace"])
        assert args.mean_duration == 400.0
        args = build_parser().parse_args(["trace", "--mean-duration", "60"])
        assert args.mean_duration == 60.0

    def test_specdiff_requires_jsonl(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["specdiff"])

    def test_specdiff_options(self):
        args = build_parser().parse_args(
            ["specdiff", "--jsonl", "t.jsonl", "--machine", "sip",
             "--strict", "--json", "--min-severity", "warning"])
        assert args.command == "specdiff"
        assert args.machine == "sip" and args.strict and args.json
        assert args.min_severity == "warning"
        assert not args.no_cross_protocol

    def test_speclint_options(self):
        args = build_parser().parse_args(
            ["speclint", "--json", "--strict", "--min-severity", "warning",
             "--no-cross-protocol", "--dot", "/tmp/dots"])
        assert args.json and args.strict
        assert args.min_severity == "warning"
        assert args.no_cross_protocol
        assert args.dot == "/tmp/dots"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "0.0.0.0" and args.sip_port == 5060
        assert args.rtp_range is None
        assert args.shards == 1 and not args.supervise
        assert args.metrics_port is None and args.metrics is None
        assert args.flush_interval == 0.05 and args.max_runtime is None

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay", "--pcap", "c.pcap"])
        assert args.command == "replay" and args.pcap == "c.pcap"
        assert args.shards == 1 and not args.supervise
        assert not args.no_rebase and not args.json
        assert args.metrics is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay"])

    def test_every_subcommand_has_exactly_one_handler(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        handlers = {name[len("_cmd_"):].replace("_", "-")
                    for name in vars(cli) if name.startswith("_cmd_")}
        assert set(subparsers.choices) == set(cli._COMMANDS) == handlers
        for name, handler in cli._COMMANDS.items():
            assert handler.__name__ == "_cmd_" + name.replace("-", "_")

    def test_perf_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["perf"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_mining_flags_are_gone(self, capsys):
        for argv in (["mine", "--jsonl", "t.jsonl"],
                     ["specdiff", "--jsonl", "t.jsonl", "--k", "2"],
                     ["trace", "--trace-variables"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2
        capsys.readouterr()


def attack_capture():
    """A call in progress, a third-party BYE, then media that keeps
    flowing: one ``bye-dos`` alert at every tier."""
    from repro.vids import CapturedPacket
    from tests.vids.test_ids import ATTACKER, CALLEE, CALLER, bye_bytes, \
        dgram, rtp_bytes
    from tests.vids.test_replay import make_capture

    capture = make_capture()[:-2]
    time = capture[-1].time + 0.02
    capture.append(CapturedPacket(time, dgram(bye_bytes(), ATTACKER, CALLER)))
    for index in range(10, 40):
        time += 0.02
        capture.append(CapturedPacket(time, dgram(
            rtp_bytes(seq=index + 1, ts=(index + 1) * 160),
            CALLER, CALLEE, 20_000, 20_002)))
    return capture


@pytest.fixture(scope="module")
def benign_trace(tmp_path_factory):
    """CI's specdiff corpus: a benign seed-5 trace with teardowns."""
    jsonl = tmp_path_factory.mktemp("specdiff") / "trace.jsonl"
    assert main(["trace", "--attack", "none", "--horizon", "120",
                 "--mean-duration", "40", "--seed", "5",
                 "--jsonl", str(jsonl)]) == 0
    return jsonl


class TestCommands:
    def test_machines_summary(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "machine 'sip'" in out
        assert "machine 'rtp'" in out
        assert "attack patterns" in out
        assert "ATTACK_Invite_Flood" in out

    def test_machines_dot(self, capsys):
        assert main(["machines", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("digraph") == 4

    def test_speclint_shipped_specs_pass(self, capsys):
        # The shipped config and the cross_protocol=False ablation, as
        # `make speclint` runs them.
        for ablation in ([], ["--no-cross-protocol"]):
            assert main(["speclint", "--strict", "--min-severity", "warning",
                         *ablation]) == 0
            assert "no findings" in capsys.readouterr().out

    def test_speclint_json_output(self, capsys):
        assert main(["speclint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "findings" in payload and "counts" in payload
        assert payload["counts"].get("error", 0) == 0

    def test_speclint_writes_annotated_dot(self, capsys, tmp_path):
        assert main(["speclint", "--min-severity", "error",
                     "--dot", str(tmp_path)]) == 0
        written = {p.name for p in tmp_path.glob("*.dot")}
        assert {"sip.dot", "rtp.dot"} <= written

    def test_trace_specdiff_pipeline(self, capsys, benign_trace):
        for machine in ("sip", "rtp"):
            assert main(["specdiff", "--jsonl", str(benign_trace),
                         "--machine", machine, "--strict"]) == 0
            out = capsys.readouterr().out
            assert "missing-transition" not in out
            assert "unexercised-transition" in out
        assert main(["specdiff", "--jsonl", str(benign_trace),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {f["machine"] for f in payload["findings"]} == {"sip", "rtp"}
        assert set(payload["counts"]) == {"INFO"}

    def test_specdiff_fails_on_a_gap_and_on_a_deviation(
            self, capsys, monkeypatch, tmp_path, benign_trace):
        """A benign trace that the spec cannot explain fails ``--strict``:
        a spec missing a transition the trace fires (SIP Proceeding
        --200-invite--> Answered), and a recorded deviation."""
        from repro.obs import from_jsonl
        from repro.vids import sip_machine

        build_sip_machine = sip_machine.build_sip_machine

        def gapped(config):
            machine = build_sip_machine(config)
            (answer,) = [t for t in machine.transitions
                         if t.source == "Proceeding"
                         and t.target == "Answered"]
            machine.transitions.remove(answer)
            return machine

        monkeypatch.setattr(sip_machine, "build_sip_machine", gapped)
        assert main(["specdiff", "--jsonl", str(benign_trace),
                     "--machine", "sip", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "ERROR: [missing-transition] sip state=Proceeding " \
               "event=RESPONSE" in out
        monkeypatch.undo()

        export = from_jsonl(benign_trace.read_text())
        fire = next(e for e in export.events if e.kind == "fire"
                    and e.data["machine"] == "rtp")
        deviation = dict(fire.to_dict(), seq=export.events[-1].seq + 1,
                         to_state=fire.data["from_state"], deviation=True)
        deviating = tmp_path / "deviating.jsonl"
        deviating.write_text(benign_trace.read_text().rstrip("\n") + "\n"
                             + json.dumps(deviation))
        assert main(["specdiff", "--jsonl", str(deviating),
                     "--machine", "rtp", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "[missing-transition] rtp state=" \
               f"{fire.data['from_state']}" in out

    def test_specdiff_without_fire_events_fails(self, capsys, tmp_path):
        jsonl = tmp_path / "empty.jsonl"
        jsonl.write_text("")
        assert main(["specdiff", "--jsonl", str(jsonl),
                     "--machine", "sip"]) == 2

    def test_scenario_runs_and_exports(self, capsys, tmp_path):
        code = main(["scenario", "--horizon", "240", "--phones", "3",
                     "--figures", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean setup delay" in out
        assert "mean MOS" in out
        assert (tmp_path / "fig9_setup_delay.csv").exists()

    def test_replay_pcap_same_verdict_at_every_tier(self, capsys, tmp_path):
        from repro.live import write_pcap

        capture = attack_capture()
        pcap = str(tmp_path / "attack.pcap")
        write_pcap(pcap, capture)

        assert main(["replay", "--pcap", pcap]) == 0
        plain = capsys.readouterr().out
        assert f"decoded {len(capture)} UDP datagrams" in plain
        assert f"analysed {len(capture)} packets" in plain
        assert "1 alerts" in plain and "bye-dos" in plain

        assert main(["replay", "--pcap", pcap, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"decode", "metrics", "alerts"}
        assert report["decode"]["udp_datagrams"] == len(capture)
        assert report["metrics"]["packets_processed"] == len(capture)
        assert [a["attack_type"] for a in report["alerts"]] == ["bye-dos"]
        assert set(report["alerts"][0]) == {
            "time", "attack_type", "call_id", "source", "destination",
            "machine", "state", "detail"}

        assert main(["replay", "--pcap", pcap, "--json",
                     "--shards", "2", "--supervise"]) == 0
        supervised = json.loads(capsys.readouterr().out)
        assert supervised["alerts"] == report["alerts"]
        assert supervised["metrics"]["packets_processed"] == len(capture)

        assert main(["replay", "--pcap", str(tmp_path / "missing.pcap")]) == 2
