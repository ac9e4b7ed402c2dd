"""Unit tests for the Call State Fact Base."""

from repro.vids import DEFAULT_CONFIG
from repro.vids.sync import SIP_MACHINE

from .helpers import CALL_ID, answer_event, invite_event
from .test_checkpoint import make_factbase


def test_get_or_create_and_lookup():
    factbase, clock, metrics = make_factbase()
    record = factbase.get_or_create(CALL_ID)
    assert factbase.get(CALL_ID) is record
    assert factbase.get_or_create(CALL_ID) is record
    assert len(factbase) == 1
    assert metrics.calls_created == 1


def test_record_has_sip_and_rtp_machines_with_shared_globals():
    factbase, clock, _ = make_factbase()
    record = factbase.get_or_create(CALL_ID)
    assert record.sip.definition.name == "sip"
    assert record.rtp.definition.name == "rtp"
    record.sip.variables["g_offer_addr"] = "10.1.0.11"
    assert record.rtp.variables["g_offer_addr"] == "10.1.0.11"


def test_media_index_tracks_sdp_negotiation():
    factbase, clock, _ = make_factbase()
    record = factbase.get_or_create(CALL_ID)
    record.system.inject(SIP_MACHINE, invite_event())
    factbase.refresh_media_index(record)
    match = factbase.lookup_media(("10.1.0.11", 20_000))
    assert match is not None
    assert match[0] is record
    assert match[1] == "to_caller"
    assert factbase.lookup_media(("10.2.0.11", 20_002)) is None

    record.system.inject(SIP_MACHINE, answer_event())
    factbase.refresh_media_index(record)
    match = factbase.lookup_media(("10.2.0.11", 20_002))
    assert match is not None and match[1] == "to_callee"


def test_delete_removes_index_and_samples_memory():
    factbase, clock, metrics = make_factbase()
    record = factbase.get_or_create(CALL_ID)
    record.system.inject(SIP_MACHINE, invite_event())
    factbase.refresh_media_index(record)
    deleted = factbase.delete(CALL_ID)
    assert deleted is record
    assert factbase.get(CALL_ID) is None
    assert factbase.lookup_media(("10.1.0.11", 20_000)) is None
    assert metrics.calls_deleted == 1
    sip_bytes, rtp_bytes = metrics.call_memory_samples[0]
    assert sip_bytes > 0
    assert factbase.delete(CALL_ID) is None   # idempotent


def test_state_bytes_same_order_as_paper():
    factbase, clock, _ = make_factbase()
    record = factbase.get_or_create(CALL_ID)
    record.system.inject(SIP_MACHINE, invite_event())
    record.system.inject(SIP_MACHINE, answer_event())
    # Paper: ~450 B of SIP state, ~40 B of RTP state per call.  Ours must be
    # the same order of magnitude (tens to hundreds of bytes).
    assert 50 <= record.sip_state_bytes() <= 1000
    assert record.rtp_state_bytes() <= 300
    assert record.state_bytes() == (record.sip_state_bytes()
                                    + record.rtp_state_bytes())


def test_garbage_collection_by_ttl():
    config = DEFAULT_CONFIG.with_overrides(call_record_ttl=100.0)
    factbase, clock, _ = make_factbase(config)
    factbase.get_or_create("stale@x")
    clock.advance(50.0)
    fresh = factbase.get_or_create("fresh@x")
    factbase.touch(fresh)
    clock.advance(75.0)   # stale is 125 s idle, fresh 75 s
    removed = factbase.collect_garbage()
    assert removed == 1
    assert factbase.get("stale@x") is None
    assert factbase.get("fresh@x") is not None


def test_concurrency_metrics_track_peaks():
    factbase, clock, metrics = make_factbase()
    for index in range(5):
        record = factbase.get_or_create(f"c{index}@x")
        factbase.touch(record)
    assert metrics.peak_concurrent_calls == 5
    # State bytes are sampled at call granularity (here: on delete).
    factbase.delete("c0@x")
    assert metrics.peak_state_bytes > 0


def test_on_result_hook_wired_to_new_records():
    """Every observable firing of a new record reaches the hook; a quiet
    one (the INVITE opening the dialog) does not, but still leaves the
    record's state size to be re-measured."""
    factbase, clock, _ = make_factbase()
    seen = []
    factbase.on_result = lambda record, result: seen.append(
        (record.call_id, result.machine, result.event.name,
         result.deviation))
    record = factbase.get_or_create(CALL_ID)
    factbase.total_state_bytes()
    record.system.inject(SIP_MACHINE, invite_event())
    assert seen == [] and factbase._dirty == {record}
    assert record.system.deliveries == 2     # the INVITE and its δ
    record.system.inject(SIP_MACHINE, invite_event(branch="z9hG4bKother"))
    assert seen == [(CALL_ID, "sip", "INVITE", True)]
