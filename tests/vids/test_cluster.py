"""Unit tests for the shard supervision tier (repro.vids.cluster).

Heartbeat-driven failure detection, checkpoint/restore failover,
exponential restart backoff and the bounded admission queue — each
exercised against a ManualClock so every heartbeat and fault fires at a
deterministic simulated time.
"""

from repro.efsm import Event, ManualClock
from repro.netsim import Datagram, Endpoint
from repro.netsim.faults import ShardFaultPlan
from repro.rtp.packet import RtpPacket
from repro.sip.message import SipRequest
from repro.sip.sdp import SDP_CONTENT_TYPE, SessionDescription
from repro.vids import (
    ClusterConfig,
    DEFAULT_CONFIG,
    MemberState,
    SupervisedCluster,
    shard_for_call,
)

PROXY_B = Endpoint("10.2.0.1", 5060)

#: Fast supervision cycle for unit tests: heartbeat every 0.1s, one miss
#: declares DOWN, first restart attempt 0.1s later.
FAST = ClusterConfig(checkpoint_cadence=4, heartbeat_interval=0.1,
                     heartbeat_misses=1, restart_backoff=0.1,
                     backoff_factor=2.0, backoff_max=1.0)


def invite_datagram(call_id, to_user="b1", from_user="alice",
                    src_ip="10.1.0.11", seq=1, media_port=20_000):
    sdp = SessionDescription.for_audio(src_ip, media_port, 18, "G729")
    request = SipRequest("INVITE", f"sip:{to_user}@b.example.com",
                         body=sdp.serialize())
    request.set("Via",
                f"SIP/2.0/UDP {src_ip}:5060;branch=z9hG4bK{call_id}{seq}")
    request.set("From", f"<sip:{from_user}@a.example.com>;tag=tag-{call_id}")
    request.set("To", f"<sip:{to_user}@b.example.com>")
    request.set("Call-ID", call_id)
    request.set("CSeq", f"{seq} INVITE")
    request.set("Contact", f"<sip:{from_user}@{src_ip}:5060>")
    request.set("Content-Type", SDP_CONTENT_TYPE)
    return Datagram(Endpoint(src_ip, 5060), PROXY_B, request.serialize())


def bye_datagram(call_id, src_ip="10.1.0.11", seq=2):
    request = SipRequest("BYE", "sip:b1@b.example.com")
    request.set("Via",
                f"SIP/2.0/UDP {src_ip}:5060;branch=z9hG4bKb{call_id}{seq}")
    request.set("From", f"<sip:alice@a.example.com>;tag=tag-{call_id}")
    request.set("To", "<sip:b1@b.example.com>;tag=remote")
    request.set("Call-ID", call_id)
    request.set("CSeq", f"{seq} BYE")
    return Datagram(Endpoint(src_ip, 5060), PROXY_B, request.serialize())


def rtp_datagram(dst_ip, dst_port, seq=1):
    payload = RtpPacket(payload_type=18, sequence_number=seq,
                        timestamp=160 * seq, ssrc=7,
                        payload=b"\x00" * 10).serialize()
    return Datagram(Endpoint("172.16.9.9", 40_000),
                    Endpoint(dst_ip, dst_port), payload)


def make_cluster(shards=2, cluster=FAST, fault_plan=None,
                 config=DEFAULT_CONFIG):
    clock = ManualClock()
    supervised = SupervisedCluster(
        shards=shards, config=config, clock_now=clock.now,
        timer_scheduler=clock.schedule, cluster=cluster,
        fault_plan=fault_plan)
    return supervised, clock


def calls_on_shard(index, count, shards=2, limit=5000):
    """Call-ids whose consistent hash lands on the given shard."""
    found = []
    for n in range(limit):
        call_id = f"call-{n}@unit"
        if shard_for_call(call_id, shards) == index:
            found.append(call_id)
            if len(found) == count:
                return found
    raise AssertionError("not enough call ids found")


def call_on_shard(index, shards=2, limit=5000):
    return calls_on_shard(index, 1, shards, limit)[0]


def test_baseline_checkpoints_and_cadence():
    supervised, clock = make_cluster(cluster=FAST.with_overrides(
        checkpoint_cadence=4))
    supervisor = supervised.supervisor
    baseline = supervisor.metrics.checkpoints_taken
    assert baseline == 2          # one per member at start()
    for n in range(8):
        supervised.process(invite_datagram(f"c{n}@x", from_user=f"u{n}"),
                           clock.now())
    # Every member checkpoints after its own 4th packet.
    assert supervisor.metrics.checkpoints_taken > baseline
    for member in supervisor.members:
        assert member.packets_since_checkpoint < 4
        assert member.checkpoint is not None


def test_kill_is_detected_restored_and_queue_replayed():
    victim = 1
    plan = ShardFaultPlan(kills=((1.0, victim),))
    supervised, clock = make_cluster(fault_plan=plan)
    supervisor = supervised.supervisor
    call_id = call_on_shard(victim)
    supervised.process(invite_datagram(call_id), clock.now())
    assert supervised.shards[victim].active_calls == 1

    clock.advance(1.05)           # kill fires at t=1.0
    member = supervisor.members[victim]
    assert not member.alive
    assert supervisor.metrics.fault_kills == 1

    clock.advance(0.1)            # heartbeat: one miss -> DOWN
    assert member.state is MemberState.DOWN
    assert supervisor.metrics.members_down == 1
    assert len(supervised.incidents) == 1

    # Traffic for the dead member parks on its admission queue.
    supervised.process(bye_datagram(call_id), clock.now())
    assert len(member.queue) == 1

    clock.advance(0.3)            # backoff elapses -> restart from checkpoint
    assert member.state is MemberState.UP
    assert member.alive
    assert supervisor.metrics.members_restarted == 1
    assert supervised.incidents[0]["restored_at"] is not None
    # The queued BYE replayed into the restored member.
    assert len(member.queue) == 0
    assert supervisor.metrics.packets_requeued == 1
    restored = supervised.shards[victim]
    record = restored.factbase.get(call_id)
    # INVITE was checkpointed, BYE replayed after restore: the call is in
    # teardown, not lost.
    assert record is None or record.deletion_scheduled \
        or restored.factbase.get(call_id).system.states()["sip"] != "init"


ORPHAN = ("10.2.0.99", 30_000)


def test_tracker_snapshot_is_reused_until_a_tracker_version_moves():
    supervised, clock = make_cluster(cluster=FAST.with_overrides(
        checkpoint_cadence=1000))
    supervisor = supervised.supervisor
    first = supervisor.members[0]
    supervised.process(invite_datagram(call_on_shard(0)), clock.now())
    supervised.process(rtp_datagram(*ORPHAN), clock.now())
    one = supervisor.take_checkpoint(first)
    assert set(one.trackers["flood"]["machines"]) == {"b1@b.example.com"}
    assert set(one.trackers["source_flood"]["machines"]) == {"10.1.0.11"}
    assert set(one.trackers["orphan"]["machines"]) == {ORPHAN}
    # Nothing moved: the next checkpoint carries the same snapshot object.
    assert supervisor.take_checkpoint(first).trackers is one.trackers
    # T1 expires: both flood instances leave their tables, and the
    # trackers' own version says so.
    clock.advance(DEFAULT_CONFIG.invite_flood_window + 0.01)
    two = supervisor.take_checkpoint(first)
    assert two.trackers["versions"] != one.trackers["versions"]
    assert (two.trackers["flood"]["machines"]
            == two.trackers["source_flood"]["machines"] == {})
    assert set(two.trackers["orphan"]["machines"]) == {ORPHAN}
    # Only the first member carries the trackers.
    assert supervisor.take_checkpoint(supervisor.members[1]).trackers is None


def test_failover_restores_trackers_with_their_versions():
    plan = ShardFaultPlan(kills=((0.2, 0),))
    supervised, clock = make_cluster(fault_plan=plan)
    supervisor = supervised.supervisor
    supervised.process(invite_datagram(call_on_shard(0)), clock.now())
    for seq in range(1, 4):       # the 4th packet on shard 0 checkpoints
        supervised.process(rtp_datagram(*ORPHAN, seq=seq), clock.now())
    checkpoint = supervisor.members[0].checkpoint
    assert set(checkpoint.trackers["orphan"]["machines"]) == {ORPHAN}
    before = supervised.shards[0]
    trackers = supervised.trackers

    def parts():
        return (trackers.flood_tracker, trackers.source_flood_tracker,
                trackers.orphan_tracker, trackers._stray_keys)

    held = parts()

    clock.advance(0.6)            # kill, DOWN, restart from the checkpoint
    restored = supervised.shards[0]
    assert restored is not before
    assert supervisor.metrics.members_restarted == 1
    # Restored in place: every shard, the replacement included, holds the
    # very objects the shards held before the kill.
    for shard in supervised.shards:
        assert shard.trackers is shard.distributor.trackers is trackers
        assert shard.engine._first_stray == trackers.first_stray
    assert all(was is now for was, now in zip(held, parts()))
    orphan = trackers.orphan_tracker
    instance = orphan.machines[ORPHAN]
    assert instance.definition is orphan._definition
    assert instance.variables["packets"] == 3
    assert (*(tracker.version for tracker in held[:3]),
            trackers._stray_version) == checkpoint.trackers["versions"]
    # The re-baseline checkpoint found nothing changed since the one it
    # restored from.
    assert supervisor.members[0].checkpoint.trackers is checkpoint.trackers
    # The restored flood window still closes at its original deadline,
    # and forgets its target.
    assert "b1@b.example.com" in trackers.flood_tracker.machines
    clock.advance(DEFAULT_CONFIG.invite_flood_window - 0.6 + 0.01)
    assert trackers.flood_tracker.machines == {}


def test_restore_cancels_the_timers_of_the_windows_it_discards():
    """In-place restore keeps the tracker objects, so a T1 deadline set
    after the checkpoint belongs to state the restore throws away.  Kept,
    it would close a later window for that target early; restored windows
    close at their checkpointed deadlines."""
    assert DEFAULT_CONFIG.invite_flood_window == 1.0
    plan = ShardFaultPlan(kills=((0.5, 0),))
    supervised, clock = make_cluster(
        fault_plan=plan, cluster=FAST.with_overrides(checkpoint_cadence=1000))
    supervisor = supervised.supervisor
    flood = supervised.trackers.flood_tracker
    b1, b2 = "b1@b.example.com", "b2@b.example.com"
    # The calls live on shard 1; only the trackers ride with member 0.
    first, second, third = calls_on_shard(1, 3)

    supervised.process(invite_datagram(first, to_user="b1"), clock.now())
    supervisor.take_checkpoint(supervisor.members[0])   # b1 closes at 1.0
    clock.advance(0.3)
    supervised.process(invite_datagram(second, to_user="b2"), clock.now())
    assert set(flood.machines) == {b1, b2}              # b2 closes at 1.3

    clock.advance(0.45)           # kill at 0.5, DOWN at 0.6, restored at 0.7
    assert supervisor.metrics.members_restarted == 1
    assert set(flood.machines) == {b1}      # b2 is not in the checkpoint
    clock.advance(0.24)           # t=0.99
    assert set(flood.machines) == {b1}      # not before its deadline
    clock.advance(0.02)           # t=1.01
    assert flood.machines == {}

    clock.advance(0.04)           # t=1.05: b2 again, closing at 2.05
    supervised.process(invite_datagram(third, to_user="b2"), clock.now())
    clock.advance(0.3)            # past 1.3, the discarded timer's deadline
    assert set(flood.machines) == {b2}
    clock.advance(0.75)           # t=2.1
    assert flood.machines == {}


def test_checkpoint_carries_the_previous_logs_until_they_grow():
    """The alert log and the two metrics logs only grow; a checkpoint
    taken while one has not moved carries the previous tuple, not one more
    copy of everything ever logged."""
    supervised, clock = make_cluster(cluster=FAST.with_overrides(
        checkpoint_cadence=1000))
    supervisor = supervised.supervisor
    member = supervisor.members[0]
    member.vids.engine.note_stray_request("BYE", "ghost@unit", "6.6.6.6",
                                          "10.2.0.11")
    one = supervisor.take_checkpoint(member).vids
    assert len(one["alerts"]) == 1
    supervised.process(invite_datagram(call_on_shard(0)), clock.now())
    two = supervisor.take_checkpoint(member).vids
    assert two["alerts"] is one["alerts"]
    for log in ("call_memory_samples", "shed_intervals"):
        assert two["metrics"][log] is one["metrics"][log]
    assert two["metrics"]["sip_messages"] == one["metrics"]["sip_messages"] + 1
    member.vids.engine.note_stray_request("BYE", "ghost-2@unit", "6.6.6.6",
                                          "10.2.0.11")
    three = supervisor.take_checkpoint(member).vids
    assert len(three["alerts"]) == 2 and len(two["alerts"]) == 1


def test_restored_call_is_snapshotted_again_once_it_fires():
    """The firing count is the change version, and it travels with the
    call: a restored call that fires as often as it had before its
    checkpoint must not be mistaken for unchanged."""
    victim = 1
    plan = ShardFaultPlan(kills=((0.2, victim),))
    supervised, clock = make_cluster(fault_plan=plan)
    supervisor = supervised.supervisor
    member = supervisor.members[victim]
    call_id = call_on_shard(victim)
    supervised.process(invite_datagram(call_id), clock.now())
    supervisor.take_checkpoint(member)
    fired = member.checkpoint.vids["factbase"]["calls"][call_id][
        "system"]["deliveries"]
    assert fired > 0
    clock.advance(0.6)            # kill, DOWN, restart from the checkpoint
    assert supervisor.metrics.members_restarted == 1
    record = member.vids.factbase.get(call_id)
    assert record.system.deliveries == fired
    for n in range(fired):        # as many firings again, all deviations
        record.system.inject("sip", Event("RESPONSE", {"status": 999 + n}))
    assert record.system.deliveries == 2 * fired
    call = supervisor.take_checkpoint(member).vids["factbase"]["calls"][call_id]
    assert call["system"]["deliveries"] == 2 * fired
    assert call["deviation_keys"]


def test_loss_window_is_bounded_by_cadence():
    victim = 0
    plan = ShardFaultPlan(kills=((1.0, victim),))
    cluster = FAST.with_overrides(checkpoint_cadence=100)
    supervised, clock = make_cluster(fault_plan=plan, cluster=cluster)
    # 5 packets since the baseline checkpoint, all uncheckpointed.
    for seq, call_id in enumerate(calls_on_shard(victim, 5)):
        supervised.process(invite_datagram(call_id, from_user=f"u{seq}"),
                           clock.now())
    since = supervised.supervisor.members[victim].packets_since_checkpoint
    assert since == 5
    clock.advance(1.2)            # kill + heartbeat -> DOWN
    incident = supervised.incidents[0]
    assert incident["lost_packets"] == since <= 100
    assert supervised.cluster_metrics.lost_packets == since


def test_hung_member_restart_fails_with_growing_backoff():
    plan = ShardFaultPlan(hangs=((0.5, 10.0, 0),))
    supervised, clock = make_cluster(fault_plan=plan)
    supervisor = supervised.supervisor
    member = supervisor.members[0]

    clock.advance(1.0)            # hang at 0.5; heartbeat declares DOWN
    assert member.state is MemberState.DOWN
    assert supervisor.metrics.fault_hangs == 1

    clock.advance(5.0)            # several restart attempts, all wedged
    assert supervisor.metrics.restart_failures >= 2
    assert member.state is MemberState.DOWN
    assert supervised.incidents[0]["restart_failures"] >= 2
    # Backoff grew exponentially but stayed under the cap.
    assert member.restart_attempts >= 2
    delay = (supervisor.config.restart_backoff
             * supervisor.config.backoff_factor ** member.restart_attempts)
    assert supervisor._backoff(member) == min(
        delay, supervisor.config.backoff_max)

    clock.advance(10.0)           # hang window passes -> restart succeeds
    assert member.state is MemberState.UP
    assert supervisor.metrics.members_restarted == 1


def test_queue_overflow_degrades_into_shedding():
    plan = ShardFaultPlan(kills=((0.0, 0),))
    cluster = FAST.with_overrides(admission_queue_limit=2,
                                  restart_backoff=1000.0)
    supervised, clock = make_cluster(fault_plan=plan, cluster=cluster)
    clock.advance(0.2)            # kill + heartbeat -> DOWN, no restart soon
    member = supervised.supervisor.members[0]
    assert member.state is MemberState.DOWN

    for call_id in calls_on_shard(0, 4):
        supervised.process(invite_datagram(call_id), clock.now())
    assert len(member.queue) == 2
    assert supervised.cluster_metrics.backpressure_drops == 2
    assert member.vids.metrics.packets_shed == 2


def test_summary_and_report_include_supervision():
    plan = ShardFaultPlan(kills=((0.5, 1),))
    supervised, clock = make_cluster(fault_plan=plan)
    supervised.process(invite_datagram("rep@unit"), clock.now())
    clock.advance(2.0)
    summary = supervised.summary()
    assert summary["supervised"] is True
    assert summary["members_up"] == 2      # killed, then restored
    assert summary["cluster"]["members_restarted"] == 1
    assert summary["incidents"] == 1
    report = supervised.report()
    assert "supervision" in report
    assert "restarts: 1" in report
