"""Property-based tests for the Call State Fact Base invariants."""

from hypothesis import given, settings, strategies as st

from repro.efsm import ManualClock
from repro.vids import CallStateFactBase, DEFAULT_CONFIG, VidsMetrics
from repro.vids.sync import SIP_MACHINE

from tests.vids.helpers import answer_event, invite_event


def make_factbase():
    clock = ManualClock()
    return CallStateFactBase(DEFAULT_CONFIG, clock.now, clock.schedule,
                             VidsMetrics()), clock


# Operations: (op, call_index)
_ops = st.lists(
    st.tuples(st.sampled_from(["invite", "answer", "delete", "touch"]),
              st.integers(0, 4)),
    max_size=40,
)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_media_index_always_consistent(operations):
    """The one media table agrees with every live record's own view: each
    entry names a live record whose ``media_map`` holds that key with that
    direction, and each record's keys resolve back to it."""
    factbase, clock = make_factbase()
    for op, index in operations:
        call_id = f"c{index}@p"
        if op == "invite":
            record = factbase.get_or_create(call_id)
            record.system.inject(
                SIP_MACHINE,
                invite_event(call_id=call_id, sdp_port=20_000 + 2 * index))
            factbase.refresh_media_index(record)
        elif op == "answer":
            record = factbase.get(call_id)
            if record is not None:
                record.system.inject(
                    SIP_MACHINE,
                    answer_event(call_id=call_id,
                                 sdp_port=30_000 + 2 * index))
                factbase.refresh_media_index(record)
        elif op == "delete":
            factbase.delete(call_id)
        else:
            record = factbase.get(call_id)
            if record is not None:
                factbase.touch(record)

        # Invariants after every step:
        for key, (record, direction) in factbase.media_index.items():
            assert factbase.records.get(record.call_id) is record, \
                "index points at a deleted record"
            assert record.media_map[key] == direction
        for record in factbase.records.values():
            for key, direction in record.media_map.items():
                assert factbase.lookup_media(key) == (record, direction)


@given(_ops)
@settings(max_examples=40, deadline=None)
def test_metrics_accounting_invariants(operations):
    factbase, clock = make_factbase()
    metrics = factbase.metrics
    for op, index in operations:
        call_id = f"c{index}@p"
        if op in ("invite", "answer"):
            factbase.get_or_create(call_id)
        elif op == "delete":
            factbase.delete(call_id)
    assert metrics.calls_created >= metrics.calls_deleted
    assert metrics.calls_created - metrics.calls_deleted == len(factbase.records)
    assert metrics.peak_concurrent_calls >= len(factbase.records)
    assert len(metrics.call_memory_samples) == metrics.calls_deleted
