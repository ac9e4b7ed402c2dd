"""The generators: deterministic per seed, different across seeds."""

import _paths  # noqa: F401 - import path side effect

import hashlib
import os
import subprocess
import sys

import pytest

import oracle
import workloads
from repro.live import load_pcap, write_pcap
from repro.vids import DEFAULT_CONFIG, replay_trace

QUICK = 0.1
NO_SHED = DEFAULT_CONFIG.with_overrides(shed_high_watermark=1e9)


def pcap_digest(capture, path) -> str:
    write_pcap(str(path), capture)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def mixed():
    return workloads.mixed_capture(5, QUICK)


@pytest.mark.parametrize("generate", [workloads.sip_churn,
                                      workloads.rtp_steady])
def test_same_seed_same_bytes_other_seed_other_bytes(generate, tmp_path):
    first = pcap_digest(generate(5, QUICK), tmp_path / "a.pcap")
    again = pcap_digest(generate(5, QUICK), tmp_path / "b.pcap")
    other = pcap_digest(generate(6, QUICK), tmp_path / "c.pcap")
    assert first == again
    assert first != other


def mixed_digest_in_a_fresh_process(seed: int, path) -> str:
    """The simulator numbers Call-IDs and branches from process-wide
    counters, so the mixed capture repeats per *process* - which is how
    the benchmark generates it (one worker per run, PYTHONHASHSEED=0)."""
    script = (
        "import hashlib, sys, _paths, workloads\n"
        "from repro.live import write_pcap\n"
        f"capture = workloads.mixed_capture({seed}, {QUICK}).capture\n"
        f"write_pcap({str(path)!r}, capture)\n"
        f"print(hashlib.sha256(open({str(path)!r}, 'rb').read()).hexdigest())")
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=os.path.dirname(__file__),
        env=dict(os.environ, PYTHONHASHSEED="0"), stdout=subprocess.PIPE,
        text=True, check=True, timeout=120)
    return done.stdout.strip()


def test_mixed_capture_same_seed_same_bytes_across_processes(tmp_path):
    first = mixed_digest_in_a_fresh_process(5, tmp_path / "a.pcap")
    again = mixed_digest_in_a_fresh_process(5, tmp_path / "b.pcap")
    other = mixed_digest_in_a_fresh_process(6, tmp_path / "c.pcap")
    assert len(first) == 64
    assert first == again
    assert first != other


def test_packet_count_does_not_depend_on_the_seed():
    for generate in (workloads.sip_churn, workloads.rtp_steady):
        assert len(generate(1, QUICK)) == len(generate(2, QUICK))


def test_captures_are_time_ordered_and_survive_the_pcap_codec(tmp_path):
    capture = workloads.rtp_steady(3, QUICK)
    times = [packet.time for packet in capture]
    assert times == sorted(times)
    path = tmp_path / "steady.pcap"
    write_pcap(str(path), capture)
    decoded = load_pcap(str(path))
    assert [p.datagram.payload for p in decoded] == \
        [p.datagram.payload for p in capture]


@pytest.mark.parametrize("generate", [workloads.sip_churn,
                                      workloads.rtp_steady])
def test_benign_workloads_raise_no_alert(generate):
    vids = replay_trace(generate(4, QUICK), config=NO_SHED)
    assert oracle.alert_keys(vids) == []
    assert vids.metrics.packets_shed == 0
    assert vids.metrics.calls_created == vids.metrics.calls_deleted > 0


def test_every_injector_strikes_and_is_detected(mixed):
    kinds = {instance.kind for instance in mixed.instances}
    assert len(kinds) == 11             # every Section-3 injector
    vids = replay_trace(mixed.capture, config=NO_SHED)
    checks, failures = oracle.check_attacks(mixed.instances,
                                            oracle.alert_keys(vids))
    assert failures == []
    assert checks == len(mixed.instances) + len(vids.alerts)


def test_oracle_flags_a_removed_and_a_stray_alert(mixed):
    vids = replay_trace(mixed.capture, config=NO_SHED)
    alerts = oracle.alert_keys(vids)
    victim = next(i for i in mixed.instances if i.kind == "call-hijack")
    tampered = [key for key in alerts if key[1] != "call-hijack"]
    assert len(tampered) == len(alerts) - 1
    stray = (1.0, "media-spam", "nobody@nowhere", "10.9.9.9", "10.2.0.11",
             "rtp", "ATTACK_Media_Spam")
    tampered.append(stray)
    _, failures = oracle.check_attacks(mixed.instances, tampered)
    assert sorted(failures) == sorted([
        f"missed: call-hijack at {victim.time:.3f}",
        f"unexplained: {stray}"])


def test_noise_is_a_hundredth_and_alerts_nobody(mixed):
    noise = [packet for packet in mixed.capture
             if packet.datagram.src.ip.startswith("203.0.")]
    assert len(noise) == int((len(mixed.capture) - len(noise))
                             * workloads.NOISE_SHARE)
    vids = replay_trace(noise, config=NO_SHED)
    assert vids.alerts == []
    assert vids.metrics.keepalive_packets > 0
    assert vids.metrics.malformed_sip > 0
