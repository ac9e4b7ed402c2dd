"""Section 7.3 state-size sampling stays off the per-packet path.

``peak_state_bytes`` is a *measurement*: it is taken when a call is
deleted and on the facade's housekeeping pass, never by ``touch``.  These
tests pin when the samples are taken, that the peak they produce is the
true maximum over those instants, and the two totals the benchmark's
``sip_churn`` workload has reported since it was introduced.
"""

from repro.vids import DEFAULT_CONFIG, replay_trace
from repro.vids.ids import _GC_EVERY
from repro.vids.metrics import estimate_state_bytes
from tests import load_module

from .test_ids import (CALLEE, CALLER, PROXY_A, PROXY_B, ack_bytes,
                       bye_bytes, dgram, invite_bytes, make_vids,
                       response_bytes, rtp_bytes, stream_media)


def establish(vids, clock, call_id):
    for payload, src, dst in (
            (invite_bytes(call_id=call_id), PROXY_A, PROXY_B),
            (response_bytes(200, call_id=call_id, with_sdp=True),
             PROXY_B, PROXY_A),
            (ack_bytes(call_id=call_id), CALLER, CALLEE)):
        clock.advance(0.05)
        vids.process(dgram(payload, src, dst), clock.now())


def hang_up(vids, clock, call_id):
    vids.process(dgram(bye_bytes(call_id=call_id), CALLEE, CALLER),
                 clock.now())
    vids.process(dgram(response_bytes(200, call_id=call_id, cseq="2 BYE"),
                       CALLER, CALLEE), clock.now())


def measured_from_scratch(factbase):
    """Total state bytes with no memo, dirty set or running total."""
    return sum(
        estimate_state_bytes(record.system.globals)
        + sum(estimate_state_bytes(machine.variables.local)
              for machine in record.system.machines.values())
        for record in factbase.records.values())


def test_peak_is_the_maximum_over_deletion_instants():
    vids, clock = make_vids()
    factbase = vids.factbase
    at_deletion = []
    delete = factbase.delete

    def measuring_delete(call_id):
        if call_id in factbase.records:
            at_deletion.append(measured_from_scratch(factbase))
        return delete(call_id)

    factbase.delete = measuring_delete
    linger = (DEFAULT_CONFIG.bye_inflight_timer
              + DEFAULT_CONFIG.closed_record_linger + 0.5)
    # Call-IDs of different lengths, so every instant has its own total.
    establish(vids, clock, "a@x")
    establish(vids, clock, "a-longer-call-id@host.example.com")
    stream_media(vids, clock, count=30)
    hang_up(vids, clock, "a@x")
    clock.advance(linger)                       # first deletion: two calls
    establish(vids, clock, "third@x")
    establish(vids, clock, "and-a-fourth-one@x")
    stream_media(vids, clock, count=30, start_seq=31)
    hang_up(vids, clock, "third@x")
    clock.advance(linger)                       # the peak: three calls
    hang_up(vids, clock, "and-a-fourth-one@x")
    hang_up(vids, clock, "a-longer-call-id@host.example.com")
    clock.advance(linger)                       # two more, on the way down
    assert len(factbase) == 0
    assert len(at_deletion) == 4 and len(set(at_deletion)) == 4
    assert at_deletion.index(max(at_deletion)) == 1
    assert vids.metrics.packets_processed < _GC_EVERY    # no other sample
    assert vids.metrics.peak_state_bytes == max(at_deletion)


def test_media_packets_take_no_state_size_sample():
    vids, clock = make_vids()
    establish(vids, clock, "steady@x")
    factbase = vids.factbase
    samples = []
    total_state_bytes = factbase.total_state_bytes
    factbase.total_state_bytes = lambda: samples.append(1) or \
        total_state_bytes()
    media = [vids.classifier.classify(
        dgram(rtp_bytes(seq=seq % 65_536, ts=seq * 160), CALLER, CALLEE,
              sport=20_000, dport=20_002)) for seq in range(1, 15_001)]

    # The per-packet path itself: 10 000 packets, not one measurement.
    for classified in media[:10_000]:
        clock.advance(0.02)
        assert vids.distributor.distribute(classified, clock.now())
    assert samples == []
    # Through the facade the only samples are the housekeeping passes.
    for classified in media[10_000:]:
        clock.advance(0.02)
        vids.process_classified(classified, clock.now())
    assert vids.metrics.rtp_packets == 5_000
    assert len(samples) == vids.metrics.packets_processed // _GC_EVERY == 1
    assert factbase.get("steady@x").rtp.state == "RTP_Rcvd"
    assert vids.metrics.peak_state_bytes == measured_from_scratch(factbase)


def test_sip_churn_reports_the_totals_it_always_has():
    """Moving the samples off ``touch`` may not move the reported peak:
    19 032 B on one pipeline, 24 266 B summed over four supervised shards
    (the benchmark's ``sip_churn`` capture, seed 1)."""
    capture = load_module("benchmarks/e2e/workloads.py").sip_churn(1, 1.0)
    config = DEFAULT_CONFIG.with_overrides(shed_high_watermark=1e9)
    single = replay_trace(capture, config=config)
    assert single.metrics.peak_state_bytes == 19_032
    cluster = replay_trace(capture, config=config, shards=4, supervise=True)
    assert cluster.metrics.peak_state_bytes == 24_266
