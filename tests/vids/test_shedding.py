"""Overload shedding: signaling bursts degrade media inspection gracefully.

Above the high watermark of CPU backlog, vids stops deep-inspecting RTP
(fail-open: the inline device still forwards everything) and keeps parsing
signaling; below the low watermark it recovers.  Shed intervals are
observable in the metrics, so operators can see exactly when the IDS was
running blind on media.
"""

import functools

from repro.netsim import Datagram, Endpoint
from repro.rtp.packet import RtpPacket
from repro.vids import DEFAULT_CONFIG, AttackType, PacketKind

from . import test_ids
from .test_cluster import invite_datagram

CONFIG = DEFAULT_CONFIG.with_overrides(
    shed_high_watermark=0.2,   # four SIP messages at 0.05 s each
    shed_low_watermark=0.05,
)


make_vids = functools.partial(test_ids.make_vids, CONFIG)


def rtp_datagram(dst=("10.2.0.11", 30_000), seq=1):
    payload = RtpPacket(payload_type=18, sequence_number=seq,
                        timestamp=160 * seq, ssrc=99,
                        payload=b"\x00" * 10).serialize()
    return Datagram(Endpoint("10.1.0.11", 30_001), Endpoint(*dst), payload)


def flood(vids, clock, count, prefix="burst"):
    for index in range(count):
        vids.process(invite_datagram(f"{prefix}-{index}", to_user=f"u{index}",
                                     from_user=f"f{index}"),
                     clock.now())


def test_backlog_crossing_high_watermark_engages_shedding():
    vids, clock = make_vids()
    assert not vids.shedding
    flood(vids, clock, 4)  # 4 x 0.05 s of work at t=0 -> backlog 0.2 s
    assert vids.shedding
    assert vids.backlog() >= CONFIG.shed_high_watermark
    assert vids.metrics.shed_events == 1
    assert vids.alert_count(AttackType.OVERLOAD_SHED) == 1


def test_rtp_skips_deep_inspection_while_shedding():
    vids, clock = make_vids()
    flood(vids, clock, 5)
    assert vids.shedding

    cost = vids.process(rtp_datagram(), clock.now())
    assert cost == CONFIG.shed_processing_cost
    assert vids.metrics.packets_shed == 1
    assert vids.metrics.rtp_packets == 1  # still classified and counted
    # The orphan tracker saw nothing: no unsolicited-media alert ever fires.
    assert vids.alert_count(AttackType.UNSOLICITED_MEDIA) == 0


def test_signaling_still_inspected_while_shedding():
    vids, clock = make_vids()
    flood(vids, clock, 5)
    assert vids.shedding
    created_before = vids.metrics.calls_created
    vids.process(invite_datagram("during-shed", to_user="b9"), clock.now())
    assert vids.metrics.calls_created == created_before + 1


def test_recovery_below_low_watermark():
    vids, clock = make_vids()
    flood(vids, clock, 5)
    assert vids.shedding
    shed_started = vids.metrics.shed_events

    # Let the simulated CPU drain the backlog, then process one packet to
    # re-evaluate the watermarks.
    clock.advance(5.0)
    cost = vids.process(rtp_datagram(seq=2), clock.now())
    assert not vids.shedding
    assert cost == CONFIG.rtp_processing_cost or cost >= 0
    assert vids.metrics.shed_events == shed_started
    assert len(vids.metrics.shed_intervals) == 1
    start, end = vids.metrics.shed_intervals[0]
    assert end > start
    assert vids.metrics.shed_time == end - start


def test_shed_interval_counts_are_in_summary():
    vids, clock = make_vids()
    flood(vids, clock, 5)
    clock.advance(5.0)
    vids.process(rtp_datagram(seq=3), clock.now())
    summary = vids.summary()
    assert summary["shed_events"] == 1
    assert summary["packets_shed"] >= 0
    assert summary["shed_time"] > 0


def test_no_shedding_under_normal_load():
    vids, clock = make_vids()
    for index in range(20):
        clock.advance(0.5)  # plenty of idle time between messages
        vids.process(invite_datagram(f"calm-{index}", to_user=f"c{index}"),
                     clock.now())
    assert not vids.shedding
    assert vids.metrics.shed_events == 0
    assert vids.metrics.packets_shed == 0


def test_rtcp_also_shed():
    vids, clock = make_vids()
    flood(vids, clock, 5)
    assert vids.shedding
    # A minimal RTCP sender report: version 2, packet type 200.
    from repro.rtp.rtcp import SenderReport
    payload = SenderReport(ssrc=7, ntp_timestamp=0, rtp_timestamp=0,
                           packet_count=0, octet_count=0).serialize()
    classified = vids.classifier.classify(
        Datagram(Endpoint("10.1.0.11", 30_001), Endpoint("10.2.0.11", 30_001),
                 payload))
    assert classified.kind is PacketKind.RTCP
    vids.process(Datagram(Endpoint("10.1.0.11", 30_001),
                          Endpoint("10.2.0.11", 30_001), payload),
                 clock.now())
    assert vids.metrics.packets_shed == 1


def test_open_shed_interval_flushed_at_snapshot():
    """A run that ends while still shedding must not report shed_time 0:
    summary()/flush_shed_interval() close the books on the open interval."""
    vids, clock = make_vids()
    flood(vids, clock, 5)
    assert vids.shedding
    assert vids.metrics.shed_intervals == []  # still open

    clock.advance(0.1)
    summary = vids.summary()
    assert len(vids.metrics.shed_intervals) == 1
    start, end = vids.metrics.shed_intervals[0]
    assert (start, end) == (0.0, clock.now())
    assert summary["shed_time"] == end - start

    # Idempotent: snapshotting again at the same instant adds nothing.
    vids.summary()
    assert len(vids.metrics.shed_intervals) == 1


def test_flushed_interval_not_double_counted_on_recovery():
    vids, clock = make_vids()
    flood(vids, clock, 5)
    clock.advance(0.1)
    vids.flush_shed_interval()  # mid-run snapshot while still shedding

    # Recover normally afterwards: the recovery interval must start where
    # the flush left off, so total shed_time equals the true span.
    clock.advance(5.0)
    vids.process(rtp_datagram(seq=9), clock.now())
    assert not vids.shedding
    assert len(vids.metrics.shed_intervals) == 2
    spans = vids.metrics.shed_intervals
    assert spans[0][1] == spans[1][0]  # contiguous, no overlap
    assert abs(vids.metrics.shed_time - (spans[-1][1] - spans[0][0])) < 1e-9


def test_flush_is_noop_when_not_shedding():
    vids, clock = make_vids()
    vids.process(invite_datagram("calm-flush"), clock.now())
    vids.flush_shed_interval()
    assert vids.metrics.shed_intervals == []
