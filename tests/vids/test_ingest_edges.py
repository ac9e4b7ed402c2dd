"""Regression tests for the ingest-edge bugs the live front-end exposed.

Two classes of bug, both found by feeding the IDS from real sockets and
pcap files instead of the simulator (docs/DEPLOYMENT.md):

* RFC 5626 NAT keepalives (CRLF/CRLF-CRLF pings, zero-length UDP) on the
  SIP port used to be classified MALFORMED_SIP/OTHER and fed the
  per-source protocol-fuzzing detector — an ordinary NATed UA could talk
  itself into a fuzzing alert.  They are now a benign KEEPALIVE kind
  with their own counter.

* Backward capture timestamps (multi-NIC merges, NTP steps on the
  capture host) used to raise ValueError out of every batch path.  They
  are now clamped onto the monotonic analysis clock and counted in
  ``time_regressions`` — by the one ingest loop, so one case covers
  every tier, with and without a profiler attached.
"""

import pytest

from repro.netsim.faults import ShardFaultPlan
from repro.obs import Observability
from repro.vids import AttackType, build_pipeline
from repro.vids.classifier import (KEEPALIVE_PAYLOADS, PacketClassifier,
                                   PacketKind)

from .test_ids import (
    PROXY_A,
    PROXY_B,
    dgram,
    invite_bytes,
    make_vids,
    response_bytes,
)

NATTED_UA = "203.0.113.77"


class TestKeepalives:
    def test_classifier_yields_keepalive_kind(self):
        classifier = PacketClassifier()
        for payload in KEEPALIVE_PAYLOADS:
            classified = classifier.classify(
                dgram(payload, NATTED_UA, PROXY_A, sport=41_234))
            assert classified.kind is PacketKind.KEEPALIVE
            assert classified.malformed is None

    def test_crlf_off_sip_port_stays_other(self):
        classifier = PacketClassifier()
        classified = classifier.classify(
            dgram(b"\r\n\r\n", NATTED_UA, PROXY_A, sport=9_999, dport=9_999))
        assert classified.kind is PacketKind.OTHER

    def test_keepalive_burst_is_not_protocol_fuzzing(self):
        """A NATed UA pinging every 30ms must never trip the per-source
        malformed-rate detector (threshold 20/1s pre-fix)."""
        vids, clock = make_vids()
        for _ in range(25):
            clock.advance(0.03)
            vids.process(dgram(b"\r\n\r\n", NATTED_UA, PROXY_A, sport=41_234),
                         clock.now())
        assert vids.alert_count(AttackType.PROTOCOL_FUZZING) == 0
        assert vids.metrics.keepalive_packets == 25
        assert vids.metrics.malformed_packets == 0
        assert vids.metrics.malformed_sip == 0

    def test_all_keepalive_shapes_counted(self):
        vids, clock = make_vids()
        for payload in (b"", b"\r\n", b"\r\n\r\n"):
            clock.advance(0.1)
            vids.process(dgram(payload, NATTED_UA, PROXY_A, sport=41_234),
                         clock.now())
        assert vids.metrics.keepalive_packets == 3
        assert vids.metrics.other_packets == 0
        assert vids.metrics.packets_processed == 3
        assert vids.metrics.summary()["keepalive_packets"] == 3

    def test_real_fuzzing_still_detected(self):
        """The keepalive carve-out must not blunt the actual detector."""
        vids, clock = make_vids()
        for index in range(25):
            clock.advance(0.03)
            vids.process(dgram(b"\x00\x01garbage" + bytes([index]),
                               NATTED_UA, PROXY_A, sport=41_234),
                         clock.now())
        assert vids.alert_count(AttackType.PROTOCOL_FUZZING) >= 1


def out_of_order_items():
    return [
        (dgram(invite_bytes(), PROXY_A, PROXY_B), 1.0),
        (dgram(response_bytes(180), PROXY_B, PROXY_A), 0.5),   # backwards
        (dgram(response_bytes(180), PROXY_B, PROXY_A), 1.0),   # equal: fine
        (dgram(response_bytes(200, with_sdp=True), PROXY_B, PROXY_A), 1.2),
    ]


TIERS = {
    "single": {},
    "sharded": {"shards": 4},
    "supervised": {"shards": 4, "supervise": True},
    # A fault plan (even one that never fires) makes the supervisor
    # evaluate admission on every packet.  (The id is older than the
    # gate it names; renaming it would rename a dozen tests.)
    "supervised-credits": {
        "shards": 2, "supervise": True,
        "fault_plan": ShardFaultPlan(kills=((1e9, 0),))},
}


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("tier", TIERS)
class TestTimeRegressions:
    def make(self, tier, profiled):
        obs = Observability(profile=True) if profiled else None
        return build_pipeline(obs=obs, **TIERS[tier])

    def test_batch_clamps_and_counts(self, tier, profiled):
        pipeline, clock = self.make(tier, profiled)
        # A one-shot generator: the loop may neither rewind nor size it.
        pipeline.process_batch(iter(out_of_order_items()), clock=clock)
        assert clock.now() == 1.2  # advanced, never rewound
        assert pipeline.metrics.time_regressions == 1
        assert pipeline.metrics.packets_processed == 4
        assert pipeline.metrics.sip_messages == 4

    def test_without_a_clock_timestamps_pass_through(self, tier, profiled):
        pipeline, clock = self.make(tier, profiled)
        pipeline.process_batch(iter(out_of_order_items()))
        assert clock.now() == 0.0  # nobody advanced it
        assert pipeline.metrics.time_regressions == 0
        assert pipeline.metrics.packets_processed == 4
