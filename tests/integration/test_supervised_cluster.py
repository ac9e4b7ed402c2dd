"""The supervised-cluster failover contracts (docs/ROBUSTNESS.md).

Killing 1 of 4 shards mid-way through the seed-23 mixed-attack capture
(``mixed_capture``, tests/conftest.py) loses at most
``checkpoint_cadence`` packets, alerts from before the last checkpoint
survive verbatim, and with cadence=1 the faulted run's detection is
*identical* (time-free) to the fault-free run.  Every live call of the
capture restores byte-identically from its per-call checkpoint, the one
a restarted member is refilled from.  That a fault-free supervised run
equals one pipeline, and that ``Vids.restore`` reproduces the whole
pipeline, is the tier-parity harness's job
(tests/integration/test_tier_parity.py).
"""

from collections import Counter

import pytest

from repro.efsm import ManualClock
from repro.netsim.faults import ShardFaultPlan
from repro.vids import ClusterConfig, DEFAULT_CONFIG, Vids, replay_trace

#: Shedding is a capacity behaviour; with it out of the way detection
#: must agree exactly.
NO_SHED = DEFAULT_CONFIG.with_overrides(shed_high_watermark=1e9)

SHARDS = 4
KILL_AT = 50.0
KILLED_SHARD = 1


def timed_key(alert):
    return (round(alert.time, 6), alert.attack_type, alert.call_id,
            alert.source, alert.destination, alert.machine, alert.state)


def free_key(alert):
    """Alert identity without the timestamp: packets replayed after a
    failover re-derive timer effects at restore-time clock readings, so
    the chaos contract compares detection content, not wall-clock."""
    return (alert.attack_type, alert.call_id, alert.source,
            alert.destination, alert.machine, alert.state)


def supervised_replay(capture, cadence=64, fault_plan=None):
    cluster = ClusterConfig(checkpoint_cadence=cadence,
                            heartbeat_interval=0.5, heartbeat_misses=2,
                            restart_backoff=0.5)
    return replay_trace(capture, config=NO_SHED, shards=SHARDS,
                        supervise=True, cluster=cluster,
                        fault_plan=fault_plan)


def test_checkpoint_round_trip_for_every_live_call(mixed_capture):
    """``restore(checkpoint(call))`` is byte-identical for every call of
    the mixed-attack capture: machine states, variables, timers, media."""
    clock = ManualClock()
    vids = Vids(config=NO_SHED, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    # Stop mid-scenario (all four attacks have fired; calls still live).
    items = [(p.datagram, p.time) for p in mixed_capture if p.time <= 80.0]
    vids.process_batch(items, clock=clock)
    records = list(vids.factbase.records.values())
    assert len(records) >= 3, "capture left no live calls to checkpoint"

    for record in records:
        snapshot = vids.factbase.checkpoint_call(record)

        fresh = Vids(config=NO_SHED, clock_now=clock.now,
                     timer_scheduler=clock.schedule)
        restored = fresh.factbase.restore_call(snapshot)

        assert restored.system.states() == record.system.states()
        for name, machine in record.system.machines.items():
            twin = restored.system.machines[name]
            assert twin.variables.local == machine.variables.local, name
            assert twin._timer_meta == machine._timer_meta, name
        assert restored.system.globals == record.system.globals
        assert restored.media_map == record.media_map
        # The restored record re-checkpoints byte-identically.
        assert fresh.factbase.checkpoint_call(restored) == snapshot


@pytest.mark.chaos
def test_cadence_one_failover_is_lossless(mixed_capture):
    """checkpoint_cadence=1: every packet is durable, so killing a shard
    mid-scenario changes nothing about what was detected."""
    plan = ShardFaultPlan(kills=((KILL_AT, KILLED_SHARD),))
    clean = supervised_replay(mixed_capture, cadence=1)
    faulted = supervised_replay(mixed_capture, cadence=1, fault_plan=plan)

    assert faulted.cluster_metrics.fault_kills == 1
    assert faulted.cluster_metrics.members_down == 1
    assert faulted.cluster_metrics.members_restarted == 1
    assert len(faulted.incidents) == 1
    incident = faulted.incidents[0]
    assert incident["lost_packets"] <= 1
    assert incident["restored_at"] is not None

    assert Counter(free_key(a) for a in faulted.alerts) == \
        Counter(free_key(a) for a in clean.alerts)


@pytest.mark.chaos
def test_cadence_k_failover_loss_is_bounded(mixed_capture):
    """checkpoint_cadence=K: the crash loses at most K packets, and every
    alert raised before the last checkpoint survives the failover."""
    cadence = 32
    plan = ShardFaultPlan(kills=((KILL_AT, KILLED_SHARD),))
    clean = supervised_replay(mixed_capture, cadence=cadence)
    faulted = supervised_replay(mixed_capture, cadence=cadence,
                                fault_plan=plan)

    assert len(faulted.incidents) == 1
    incident = faulted.incidents[0]
    assert incident["shard"] == KILLED_SHARD
    assert 0 <= incident["lost_packets"] <= cadence
    assert faulted.cluster_metrics.lost_packets == incident["lost_packets"]
    assert incident["restored_at"] is not None

    # Everything detected before the surviving checkpoint is verbatim.
    checkpoint_at = incident["checkpoint_at"]
    assert checkpoint_at is not None and checkpoint_at <= KILL_AT
    before = lambda run: Counter(  # noqa: E731 - local shorthand
        timed_key(a) for a in run.alerts if a.time < checkpoint_at)
    assert before(faulted) == before(clean)

    # The loss window may cost alerts, never invent detections elsewhere:
    # any surplus keys in the faulted run come from re-derived timers of
    # the killed shard's restored calls, not from other members.
    clean_keys = Counter(free_key(a) for a in clean.alerts)
    faulted_keys = Counter(free_key(a) for a in faulted.alerts)
    surplus = faulted_keys - clean_keys
    missing = clean_keys - faulted_keys
    assert sum(surplus.values()) <= incident["lost_packets"] + \
        sum(missing.values())


@pytest.mark.chaos
def test_seeded_fault_run_is_reproducible(mixed_capture):
    """The same capture + the same fault plan replays to identical
    supervision outcomes — the chaos suite's determinism contract."""
    plan = ShardFaultPlan(kills=((KILL_AT, KILLED_SHARD),))
    first = supervised_replay(mixed_capture, cadence=32, fault_plan=plan)
    second = supervised_replay(mixed_capture, cadence=32, fault_plan=plan)
    assert Counter(timed_key(a) for a in first.alerts) == \
        Counter(timed_key(a) for a in second.alerts)
    assert first.incidents == second.incidents
    assert first.cluster_metrics.summary() == second.cluster_metrics.summary()
