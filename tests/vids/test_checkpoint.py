"""Call-record checkpoint/restore and quarantine parole.

The fact-base half of the supervision tier (docs/ROBUSTNESS.md): a
checkpointed call must restore to the identical machine states, variable
vectors, timers, and media index — without disturbing the equivalence
counters (``calls_created`` / ``calls_deleted``) that the sharded
correctness bar compares exactly.
"""

import pytest

from repro.efsm import ManualClock
from repro.vids import CallStateFactBase, DEFAULT_CONFIG, VidsMetrics
from repro.vids.sync import SIP_MACHINE

from .helpers import CALL_ID, CALLEE_IP, CALLER_IP, answer_event, invite_event


def make_factbase(config=DEFAULT_CONFIG, clock=None):
    clock = clock if clock is not None else ManualClock()
    metrics = VidsMetrics()
    factbase = CallStateFactBase(config, clock.now, clock.schedule, metrics)
    return factbase, clock, metrics


def established_call(factbase):
    record = factbase.get_or_create(CALL_ID)
    record.system.inject(SIP_MACHINE, invite_event())
    record.system.inject(SIP_MACHINE, answer_event())
    factbase.refresh_media_index(record)
    return record


def test_checkpoint_restore_round_trip():
    clock = ManualClock()
    source, _, _ = make_factbase(clock=clock)
    record = established_call(source)
    clock.advance(3.0)
    source.touch(record)
    snapshot = source.checkpoint_call(record)

    target, _, metrics = make_factbase(clock=clock)
    restored = target.restore_call(snapshot)
    assert restored.call_id == CALL_ID
    assert restored.system.states() == record.system.states()
    assert restored.sip.variables.snapshot() == record.sip.variables.snapshot()
    assert restored.rtp.variables.snapshot() == record.rtp.variables.snapshot()
    assert restored.created_at == record.created_at
    assert restored.last_activity == record.last_activity
    # The media map re-derives from the restored globals.
    assert restored.media_map == record.media_map
    assert target.lookup_media((CALLER_IP, 20_000)) is not None
    assert target.lookup_media((CALLEE_IP, 20_002)) is not None
    # Restoration is not creation: the equivalence counters stay put.
    assert metrics.calls_created == 0
    # The restored record re-checkpoints byte-identically, so incremental
    # checkpoints can reuse the snapshot verbatim.
    assert target.checkpoint_call(restored) == snapshot


def test_restore_call_rejects_existing_record():
    factbase, _, _ = make_factbase()
    record = established_call(factbase)
    snapshot = factbase.checkpoint_call(record)
    with pytest.raises(ValueError):
        factbase.restore_call(snapshot)


def test_restore_reschedules_pending_deletion():
    clock = ManualClock()
    source, _, _ = make_factbase(clock=clock)
    record = established_call(source)
    record.deletion_scheduled = True
    record.delete_at = clock.now() + 5.0
    snapshot = source.checkpoint_call(record)

    target, _, metrics = make_factbase(clock=clock)
    restored = target.restore_call(snapshot)
    assert restored.deletion_scheduled
    clock.advance(4.9)
    assert target.get(CALL_ID) is not None
    clock.advance(0.2)
    assert target.get(CALL_ID) is None
    assert metrics.calls_deleted == 1


def test_restore_fires_media_route_hooks():
    clock = ManualClock()
    source, _, _ = make_factbase(clock=clock)
    snapshot = source.checkpoint_call(established_call(source))

    target, _, _ = make_factbase(clock=clock)
    routed = {}
    target.on_media_route = lambda key, call_id: routed.__setitem__(
        key, call_id)
    target.restore_call(snapshot)
    assert routed == {(CALLER_IP, 20_000): CALL_ID,
                      (CALLEE_IP, 20_002): CALL_ID}


# -- quarantine parole ---------------------------------------------------------


def test_quarantine_parole_after_ttl():
    config = DEFAULT_CONFIG.with_overrides(quarantine_ttl=30.0)
    factbase, clock, metrics = make_factbase(config)
    established_call(factbase)
    factbase.quarantine(CALL_ID)
    media_key = (CALLER_IP, 20_000)
    assert factbase.is_quarantined(CALL_ID)
    assert factbase.quarantined_media_call(media_key) == CALL_ID

    clock.advance(29.0)
    assert factbase.is_quarantined(CALL_ID)

    clock.advance(2.0)
    # Lazy parole on first touch after expiry.
    assert not factbase.is_quarantined(CALL_ID)
    assert metrics.quarantine_paroles == 1
    assert not factbase.quarantined_media
    assert factbase.quarantined_media_call(media_key) is None


def test_collect_garbage_paroles_idle_quarantines():
    config = DEFAULT_CONFIG.with_overrides(quarantine_ttl=30.0)
    factbase, clock, metrics = make_factbase(config)
    established_call(factbase)
    factbase.quarantine(CALL_ID)
    clock.advance(31.0)
    factbase.collect_garbage()
    assert CALL_ID not in factbase.quarantined
    assert metrics.quarantine_paroles == 1


def test_default_ttl_keeps_legacy_expiry():
    """quarantine_ttl=None (the default): entries age out with the record
    TTL exactly as before, and no parole is counted."""
    config = DEFAULT_CONFIG.with_overrides(call_record_ttl=10.0)
    assert config.quarantine_ttl is None
    factbase, clock, metrics = make_factbase(config)
    established_call(factbase)
    factbase.quarantine(CALL_ID)

    clock.advance(9.0)
    assert factbase.is_quarantined(CALL_ID)
    clock.advance(200.0)
    # No lazy parole without a TTL; only GC ages the entry out.
    assert factbase.is_quarantined(CALL_ID)
    factbase.collect_garbage()
    assert not factbase.is_quarantined(CALL_ID)
    assert metrics.quarantine_paroles == 0
