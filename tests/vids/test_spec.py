"""One spec per deployment (repro.vids.spec).

Every fact base, tracker, shard and restarted member of one config runs
the same frozen definitions; no packet pays a compile; the digest names
the spec across processes and checkpoints; a restore under another digest
is refused.
"""

import os
import subprocess
import sys

import pytest

from repro.efsm import DefinitionError, guards
from repro.netsim.faults import ShardFaultPlan
from repro.vids import (DEFAULT_CONFIG, CallSpec, build_pipeline, call_spec,
                        replay_trace)
from repro.vids.sync import RTP_MACHINE, SIP_MACHINE
from tests import REPO_ROOT, load_module

from .test_cluster import FAST, calls_on_shard, invite_datagram

#: The benchmark's replay config.
CONFIG = DEFAULT_CONFIG.with_overrides(shed_high_watermark=1e9)
WORKLOADS = "benchmarks/e2e/workloads.py"


def definitions(pipeline):
    """Every definition a pipeline's fact bases and trackers hold."""
    shards = getattr(pipeline, "shards", [pipeline])
    found = []
    for shard in shards:
        found += [shard.factbase.spec.sip, shard.factbase.spec.rtp]
        for record in shard.factbase.records.values():
            found += [record.system.machines[SIP_MACHINE].definition,
                      record.system.machines[RTP_MACHINE].definition]
    trackers = pipeline.trackers
    found += [trackers.flood_tracker._definition,
              trackers.source_flood_tracker._definition,
              trackers.orphan_tracker._definition]
    return found


def test_every_shard_tracker_and_restarted_member_runs_the_one_spec():
    spec = call_spec(CONFIG)
    kill = ShardFaultPlan(kills=((0.2, 1),))
    pipeline, clock = build_pipeline(CONFIG, shards=4, supervise=True,
                                     cluster=FAST, fault_plan=kill)
    before = pipeline.shards[1]
    # The member checkpoints after its 4th packet.
    for n, call_id in enumerate(calls_on_shard(1, 4, shards=4)):
        pipeline.process(invite_datagram(call_id, from_user=f"u{n}"),
                         clock.now())
    clock.advance(0.6)              # kill, DOWN, restart from checkpoint
    assert pipeline.shards[1] is not before
    assert pipeline.supervisor.metrics.members_restarted == 1
    assert pipeline.shards[1].factbase.active_calls == 4
    trackers = pipeline.trackers
    assert trackers.flood_tracker._definition is spec.flood
    assert trackers.source_flood_tracker._definition is spec.source_flood
    assert trackers.orphan_tracker._definition is spec.media_spam
    shipped = {id(machine) for machine in (spec.sip, spec.rtp, spec.flood,
                                           spec.source_flood,
                                           spec.media_spam)}
    held = definitions(pipeline)
    assert len(held) == 4 * 2 + 4 * 2 + 3   # the restored calls included
    assert {id(machine) for machine in held} <= shipped
    # A second pipeline of the same config reuses them.
    again, _ = build_pipeline(DEFAULT_CONFIG.with_overrides(
        shed_high_watermark=1e9))
    assert {id(machine) for machine in definitions(again)} <= shipped


def test_no_packet_pays_a_compile(monkeypatch):
    capture = load_module(WORKLOADS).mixed_capture(1, 1.0).capture
    call_spec(CONFIG)
    compiles = []
    define = guards._Source.define

    def counted(self, name, doc):
        compiles.append(name)
        return define(self, name, doc)

    monkeypatch.setattr(guards._Source, "define", counted)
    single = replay_trace(capture, config=CONFIG)
    cluster = replay_trace(capture, config=CONFIG, shards=4, supervise=True)
    assert compiles == []
    assert len(single.alerts) == len(cluster.alerts) == 42


def test_the_digest_sees_what_the_helpers_close_over():
    """``verdict`` (RTP) and ``is_spam`` (Figure 6) close over these
    fields: a digest that keyed helpers by code alone could not tell the
    configs apart."""
    base = CallSpec.build(DEFAULT_CONFIG)
    for override in (dict(media_spam_seq_gap=51), dict(rtp_flood_factor=3.0),
                     dict(detect_codec_change=False)):
        other = CallSpec.build(DEFAULT_CONFIG.with_overrides(**override))
        assert other.digest != base.digest, override
    gapped = CallSpec.build(DEFAULT_CONFIG.with_overrides(
        media_spam_ts_gap=DEFAULT_CONFIG.media_spam_ts_gap + 1))
    # The Figure-6 guard itself, not only the RTP machine, tells Δt apart.
    assert gapped.media_spam.transitions[1].predicate.key \
        != base.media_spam.transitions[1].predicate.key
    assert gapped.digest != base.digest
    assert CallSpec.build(DEFAULT_CONFIG).digest == base.digest


def test_the_digest_is_the_same_in_every_process():
    src = str(REPO_ROOT / "src")
    program = ("from repro.vids import CallSpec, DEFAULT_CONFIG; "
               "print(CallSpec.build(DEFAULT_CONFIG).digest)")
    digests = {subprocess.run(
        [sys.executable, "-c", program], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src,
                        "PYTHONHASHSEED": seed}).stdout.strip()
        for seed in ("1", "2")}
    assert digests == {call_spec(DEFAULT_CONFIG).digest}


def test_a_restore_under_another_spec_is_refused():
    """Without the check, this restore was accepted and left 100 RTP
    instances in ``RTP_Rcvd``, a state the disabled machine does not have:
    the next 400 packets raised 100 false spec-deviation alerts."""
    capture = load_module(WORKLOADS).rtp_steady(1, 1.0)
    pipeline, clock = build_pipeline(CONFIG)
    pipeline.process_batch(((packet.datagram, packet.time)
                            for packet in capture[:3000]), clock=clock)
    snapshot = pipeline.snapshot()
    assert snapshot["spec"] == call_spec(CONFIG).digest

    ablation, _ = build_pipeline(CONFIG.with_overrides(cross_protocol=False))
    with pytest.raises(DefinitionError, match="checkpoint taken under spec"):
        ablation.restore(snapshot)

    same, clock = build_pipeline(CONFIG)
    same.restore(snapshot)
    clock.advance(capture[2999].time)
    same.process_batch(((packet.datagram, packet.time)
                        for packet in capture[3000:3400]), clock=clock)
    assert same.alerts == []
