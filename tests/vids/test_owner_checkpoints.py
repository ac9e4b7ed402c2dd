"""Every object that holds durable state checkpoints it itself.

One round trip per owner: ``snapshot()`` mid-scenario, ``restore()`` into
a fresh instance, and the fresh instance's ``snapshot()`` must be equal —
the contract the supervisor (repro.vids.cluster) composes its member
checkpoints from.  Then the retention bounds: what a checkpoint carries
must grow with the calls in flight, not with history.
"""

import pytest

from repro.efsm import Event, ManualClock
from repro.vids import DEFAULT_CONFIG, Vids
from repro.vids.patterns import cross_call

from .test_ids import (
    ATTACKER,
    CALLEE,
    CALLER,
    PROXY_A,
    PROXY_B,
    bye_bytes,
    dgram,
    establish_call,
    invite_bytes,
    response_bytes,
    rtp_bytes,
    stream_media,
)


def make_vids(clock):
    return Vids(config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule)


def busy_vids(clock):
    """A pipeline caught mid-scenario, every owner holding something."""
    vids = make_vids(clock)
    # A complete call: deleted after its linger, so the memory-sample log
    # is not empty.
    establish_call(vids, clock)
    vids.process(dgram(bye_bytes(), CALLEE, CALLER), clock.now())
    vids.process(dgram(response_bytes(200, cseq="2 BYE"), CALLER, CALLEE),
                 clock.now())
    clock.advance(DEFAULT_CONFIG.bye_inflight_timer
                  + DEFAULT_CONFIG.closed_record_linger + 0.1)
    assert vids.metrics.call_memory_samples
    # One call established with media flowing, one still ringing (its
    # flood windows armed), and a deviation on the ringing one.
    establish_call(vids, clock)
    stream_media(vids, clock, count=5)
    vids.process(dgram(invite_bytes("ringing@x", branch="z9hG4bKr1"),
                       PROXY_A, PROXY_B), clock.now())
    vids.process(dgram(bye_bytes("ringing@x"), ATTACKER, CALLER), clock.now())
    # Cross-call state: a stray BYE, orphan media, malformed packets.
    vids.process(dgram(bye_bytes("ghost@x"), ATTACKER, CALLER), clock.now())
    for seq in range(3):
        vids.process(dgram(rtp_bytes(seq=seq, ts=seq * 160), ATTACKER, CALLEE,
                           sport=40_000, dport=40_404), clock.now())
    for index in range(3):
        vids.process(dgram(b"\x00\x01garbage" + bytes([index]), ATTACKER,
                           PROXY_A), clock.now())
    assert vids.active_calls == 2
    assert vids.alerts
    assert vids.factbase.get("ringing@x").deviation_keys
    assert vids.trackers.flood_tracker.machines
    assert vids.trackers.orphan_tracker.machines
    assert vids.trackers._stray_keys
    assert vids._malformed_windows
    return vids


OWNERS = {
    "Vids": lambda vids: vids,
    "CallStateFactBase": lambda vids: vids.factbase,
    "AlertManager": lambda vids: vids.alert_manager,
    "VidsMetrics": lambda vids: vids.metrics,
    "InviteFloodTracker": lambda vids: vids.trackers.flood_tracker,
    "OrphanMediaTracker": lambda vids: vids.trackers.orphan_tracker,
    "CrossCallTrackers": lambda vids: vids.trackers,
}


@pytest.mark.parametrize("owner", OWNERS)
def test_snapshot_restores_into_a_fresh_instance(owner):
    clock = ManualClock()
    snapshot = OWNERS[owner](busy_vids(clock)).snapshot()
    fresh = OWNERS[owner](make_vids(clock))
    assert fresh.snapshot() != snapshot
    fresh.restore(snapshot)
    assert fresh.snapshot() == snapshot


def test_restored_tracker_can_be_restored_again():
    """Restore is in place, so it must also work on a tracker that is not
    fresh — the supervisor rewinds the live one."""
    clock = ManualClock()
    trackers = busy_vids(clock).trackers
    snapshot = trackers.snapshot()
    trackers.flood_tracker.observe_invite(
        "later@b.example.com", Event("INVITE", {"branch": "z9hG4bKlater"}))
    assert trackers.first_stray(("stray", "BYE", "later@x", ATTACKER))
    assert trackers.snapshot(snapshot) is not snapshot
    trackers.restore(snapshot)
    assert trackers.snapshot() == snapshot
    # Unchanged since: the previous snapshot is handed back as it is.
    assert trackers.snapshot(snapshot) is snapshot


# -- retention -----------------------------------------------------------------


def test_deviation_dedup_goes_with_its_call():
    """1 000 calls deviate once and are deleted: no dedup key survives in
    the engine or anywhere else the pipeline checkpoints."""
    clock = ManualClock()
    vids = make_vids(clock)
    for n in range(1000):
        call_id = f"deviant-{n}@x"
        record = vids.factbase.get_or_create(call_id)
        record.system.inject("sip", Event(
            "ACK", {"src_ip": ATTACKER, "dst_ip": CALLEE}))  # before INVITE
        assert len(record.deviation_keys) == 1
        vids.factbase.delete(call_id)
    assert len(vids.alerts) == 1000
    grown = {name: len(value) for name, value in vars(vids.engine).items()
             if isinstance(value, (set, dict, list)) and value}
    assert grown == {}
    assert not vids.trackers._stray_keys
    snapshot = vids.snapshot()
    assert snapshot["factbase"]["calls"] == {}
    assert set(snapshot) == {"spec", "factbase", "metrics", "alerts",
                             "malformed_windows", "busy_until", "shedding",
                             "shed_started"}


def test_stray_table_is_capped_oldest_out():
    clock = ManualClock()
    vids = make_vids(clock)
    trackers = vids.trackers
    for n in range(10_000):
        vids.engine.note_stray_request("BYE", f"ghost-{n}@x", ATTACKER,
                                       CALLEE)
    assert len(vids.alerts) == 10_000
    assert len(trackers._stray_keys) == cross_call._MAX_STRAY_KEYS == 4096
    assert ("stray", "BYE", "ghost-9999@x", ATTACKER) in trackers._stray_keys
    assert ("stray", "BYE", "ghost-0@x", ATTACKER) not in trackers._stray_keys
    # Entries leave, so the holder counts the table's changes; its length
    # stopped being a version at the cap.
    assert trackers._stray_version == 10_000
    vids.engine.note_stray_request("BYE", "ghost-9999@x", ATTACKER, CALLEE)
    assert len(vids.alerts) == 10_000 and trackers._stray_version == 10_000
