"""Unit tests for the sharded vids facade (docs/SCALING.md).

Routing invariants: SIP hashes on Call-ID; RTP/RTCP follows the media
routing table that tracks negotiated SDP endpoints; orphan media falls to
shard 0; the aggregate views merge per-shard state.  The alert-multiset
equivalence bar for every tier lives in
tests/integration/test_tier_parity.py.
"""

from collections import Counter
from zlib import crc32

import pytest

from repro.efsm import ManualClock
from repro.vids import (DEFAULT_CONFIG, ShardedVids, Vids, replay_trace,
                        shard_for_call)

from .test_ids import (
    CALL_ID,
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
)


def make_sharded(shards=4, config=DEFAULT_CONFIG, **kwargs):
    clock = ManualClock()
    sharded = ShardedVids(shards=shards, config=config,
                          clock_now=clock.now,
                          timer_scheduler=clock.schedule, **kwargs)
    return sharded, clock


OWNER = shard_for_call(CALL_ID, 4)
#: Orphan media falls to shard 0; the tests below need an owner that is
#: some other shard to tell the two apart.
assert OWNER != 0


class TestShardAssignment:
    def test_crc32_based_and_stable(self):
        assert shard_for_call("abc", 4) == crc32(b"abc") % 4
        assert shard_for_call("abc", 4) == shard_for_call("abc", 4)

    def test_covers_all_shards(self):
        seen = {shard_for_call(f"call-{i}@x", 4) for i in range(64)}
        assert seen == {0, 1, 2, 3}

    def test_single_shard_everything_is_zero(self):
        assert shard_for_call(CALL_ID, 1) == 0

    def test_construction_validation(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            ShardedVids(shards=0, clock_now=clock.now,
                        timer_scheduler=clock.schedule)
        with pytest.raises(ValueError):
            ShardedVids(shards=2)  # no clock source at all


class TestRouting:
    def test_sip_lands_on_call_id_shard(self):
        sharded, clock = make_sharded()
        sharded.process(dgram(invite_bytes(), PROXY_A, PROXY_B), clock.now())
        counts = [s.metrics.sip_messages for s in sharded.shards]
        assert counts[OWNER] == 1
        assert sum(counts) == 1

    def test_negotiated_media_follows_owner(self):
        sharded, clock = make_sharded()
        establish_call(sharded, clock)
        # Offer (caller side) and answer (callee side) endpoints are both
        # routed to the owning shard.
        assert sharded.media_routes == {
            (CALLER, 20_000): OWNER,
            (CALLEE, 20_002): OWNER,
        }
        clock.advance(0.02)
        sharded.process(dgram(rtp_bytes(), CALLER, CALLEE,
                              sport=20_000, dport=20_002), clock.now())
        counts = [s.metrics.rtp_packets for s in sharded.shards]
        assert counts[OWNER] == 1
        assert sum(counts) == 1

    def test_orphan_media_falls_to_default_shard(self):
        sharded, clock = make_sharded()
        sharded.process(dgram(rtp_bytes(), CALLER, CALLEE,
                              sport=20_000, dport=20_002), clock.now())
        counts = [s.metrics.rtp_packets for s in sharded.shards]
        assert counts[0] == 1
        assert sum(counts) == 1

    def test_reoffer_moves_media_route(self):
        """A re-INVITE with a new media port retires the old route and
        installs the new one (the docs/SCALING.md routing invariant)."""
        sharded, clock = make_sharded()
        establish_call(sharded, clock)
        assert (CALLER, 20_000) in sharded.media_routes

        from repro.sip import SipRequest
        from .test_ids import SDP_OFFER
        reinvite = SipRequest("INVITE", "sip:bob@b.example.com",
                              body=SDP_OFFER.format(ip=CALLER, port=22_000))
        reinvite.set("Via", f"SIP/2.0/UDP {PROXY_A}:5060;branch=z9hG4bKr2p")
        reinvite.add("Via", f"SIP/2.0/UDP {CALLER}:5060;branch=z9hG4bKr2")
        reinvite.set("From", "<sip:alice@a.example.com>;tag=ft")
        reinvite.set("To", "<sip:bob@b.example.com>;tag=tt")
        reinvite.set("Call-ID", CALL_ID)
        reinvite.set("CSeq", "3 INVITE")
        reinvite.set("Contact", f"<sip:alice@{CALLER}:5060>")
        reinvite.set("Content-Type", "application/sdp")
        clock.advance(0.05)
        sharded.process(dgram(reinvite.serialize(), PROXY_A, PROXY_B),
                        clock.now())

        assert sharded.media_routes.get((CALLER, 22_000)) == OWNER
        assert (CALLER, 20_000) not in sharded.media_routes

    def test_route_retired_when_call_record_expires(self):
        sharded, clock = make_sharded()
        establish_call(sharded, clock)
        assert sharded.media_routes
        clock.advance(0.05)
        sharded.process(dgram(bye_bytes(), CALLEE, CALLER), clock.now())
        sharded.process(dgram(response_bytes(200, cseq="2 BYE"),
                              CALLER, CALLEE), clock.now())
        # Run past BYE linger + record linger so the delete timer fires.
        clock.advance(DEFAULT_CONFIG.bye_inflight_timer
                      + DEFAULT_CONFIG.closed_record_linger + 1.0)
        assert sharded.active_calls == 0
        assert sharded.media_routes == {}

    def test_callid_less_sip_routes_by_source(self):
        sharded, clock = make_sharded()
        payload = b"OPTIONS sip:x SIP/2.0\r\nCSeq: 1 OPTIONS\r\n\r\n"
        sharded.process(dgram(payload, "9.9.9.9", PROXY_B), clock.now())
        expected = shard_for_call("9.9.9.9", 4)
        counts = [s.metrics.packets_processed for s in sharded.shards]
        assert counts[expected] == 1


class TestAggregation:
    def test_merged_metrics_and_summary(self):
        sharded, clock = make_sharded()
        establish_call(sharded, clock)
        sharded.process(dgram(rtp_bytes(), CALLER, CALLEE,
                              sport=20_000, dport=20_002), clock.now())
        metrics = sharded.metrics
        assert metrics.sip_messages == 4
        assert metrics.rtp_packets == 1
        assert metrics.packets_processed == 5
        summary = sharded.summary()
        assert summary["shards"] == 4
        assert summary["media_routes"] == 2
        assert sum(summary["per_shard_packets"]) == 5
        assert sharded.active_calls == 1

    def test_alerts_merge_across_shards(self):
        sharded, clock = make_sharded()
        establish_call(sharded, clock)
        clock.advance(0.05)
        # Third-party BYE teardown: alert raised on the owning shard but
        # visible through the facade's merged views.
        sharded.process(dgram(bye_bytes(), "172.16.66.6", CALLER),
                        clock.now())
        assert sharded.alert_count() == len(sharded.alerts) == 1
        assert sharded.alert_manager.counts
        assert "alerts" in sharded.report()

    def test_batch_matches_packet_loop(self):
        def traffic():
            return [
                (dgram(invite_bytes(), PROXY_A, PROXY_B), 0.0),
                (dgram(response_bytes(180), PROXY_B, PROXY_A), 0.05),
                (dgram(response_bytes(200, with_sdp=True), PROXY_B, PROXY_A),
                 0.10),
                (dgram(rtp_bytes(), CALLER, CALLEE, 20_000, 20_002), 0.15),
            ]

        looped, clock_a = make_sharded()
        for datagram, when in traffic():
            clock_a.advance(when - clock_a.now())
            looped.process(datagram, clock_a.now())

        batched, clock_b = make_sharded()
        batched.process_batch(traffic(), clock=clock_b)

        assert batched.summary() == looped.summary()

    def test_single_shard_matches_plain_vids(self):
        plain_clock = ManualClock()
        plain = Vids(clock_now=plain_clock.now,
                     timer_scheduler=plain_clock.schedule)
        establish_call(plain, plain_clock)
        plain_clock.advance(0.05)
        plain.process(dgram(bye_bytes(), "172.16.66.6", CALLER),
                      plain_clock.now())

        sharded, clock = make_sharded(shards=1)
        establish_call(sharded, clock)
        clock.advance(0.05)
        sharded.process(dgram(bye_bytes(), "172.16.66.6", CALLER),
                        clock.now())

        assert sharded.metrics.summary() == plain.metrics.summary()
        assert ([(a.attack_type, a.call_id) for a in sharded.alerts]
                == [(a.attack_type, a.call_id) for a in plain.alerts])


class TestObservability:
    def test_per_shard_labelled_series(self):
        from repro.obs import Observability, parse_prometheus

        obs = Observability()
        clock = ManualClock()
        sharded = ShardedVids(shards=2, clock_now=clock.now,
                              timer_scheduler=clock.schedule, obs=obs)
        sharded.process(dgram(invite_bytes(), PROXY_A, PROXY_B), clock.now())
        samples = parse_prometheus(obs.registry.to_prometheus())
        by_name = {}
        for sample in samples:
            by_name.setdefault(sample.name, []).append(sample)
        shards_seen = {s.labels.get("shard")
                       for s in by_name["vids_packets_processed"]}
        assert shards_seen == {"0", "1"}
        assert sum(s.value
                   for s in by_name["vids_packets_processed"]) == 1
        assert by_name["vids_shards"][0].value == 2
        owner = shard_for_call(CALL_ID, 2)
        actives = {s.labels["shard"]: s.value
                   for s in by_name["vids_active_calls"]}
        assert actives[str(owner)] == 1

    def test_shared_trace_bus(self):
        from repro.obs import Observability

        obs = Observability()
        clock = ManualClock()
        sharded = ShardedVids(shards=2, clock_now=clock.now,
                              timer_scheduler=clock.schedule, obs=obs)
        sharded.process(dgram(invite_bytes(), PROXY_A, PROXY_B), clock.now())
        kinds = {event.kind for event in obs.trace.for_call(CALL_ID)}
        assert "classify" in kinds or "route" in kinds


class TestQuarantineMediaRetirement:
    """Quarantine pins a poisoned call's media route on its owner shard;
    parole retires it, after which the endpoint's RTP is orphan traffic
    for shard 0 and the shared Figure-6 machines."""

    MEDIA_KEY = (CALLER, 20_000)

    def _poisoned_sharded(self, quarantine_ttl=30.0):
        config = DEFAULT_CONFIG.with_overrides(quarantine_ttl=quarantine_ttl)
        sharded, clock = make_sharded(config=config)
        establish_call(sharded, clock)
        owner = sharded.shards[OWNER]
        record = owner.factbase.get(CALL_ID)
        assert record is not None

        def boom(*result):
            raise RuntimeError("poisoned transition")

        # Both firing hooks are declared slots (EfsmSystem uses
        # __slots__), so they are per-instance patchable: one of them runs
        # on every firing, observable or quiet.
        record.system.on_result = record.system.on_quiet = boom
        clock.advance(0.05)
        sharded.process(dgram(bye_bytes(), CALLEE, CALLER), clock.now())
        assert owner.metrics.calls_quarantined == 1
        return sharded, clock, owner

    def test_quarantine_pins_route_on_owner(self):
        sharded, clock, owner = self._poisoned_sharded()
        # The route survives the record's deletion: quarantined media must
        # keep flowing to the shard that holds the deny-list entry.
        assert sharded.media_routes.get(self.MEDIA_KEY) == OWNER
        sharded.process(dgram(rtp_bytes(), "172.16.6.6", CALLER,
                              40_000, 20_000), clock.now())
        assert owner.metrics.quarantined_drops == 1
        assert sharded.shards[0].metrics.rtp_packets == 0

    def test_parole_retires_route_and_orphans_the_media(self):
        sharded, clock, owner = self._poisoned_sharded()
        clock.advance(31.0)
        sharded.collect_garbage()
        assert owner.metrics.quarantine_paroles == 1
        # Retirement reached the facade: the key routes nowhere now.
        assert self.MEDIA_KEY not in sharded.media_routes

        # The endpoint's RTP is now orphan traffic: it falls to shard 0
        # and feeds the shared unsolicited-media machine.
        sharded.process(dgram(rtp_bytes(), "172.16.6.6", CALLER,
                              40_000, 20_000), clock.now())
        assert sharded.shards[0].metrics.rtp_packets == 1
        assert owner.metrics.quarantined_drops == 0
        tracker = sharded.trackers.orphan_tracker
        assert self.MEDIA_KEY in tracker.machines

    def test_without_ttl_gc_still_retires_route(self):
        config = DEFAULT_CONFIG.with_overrides(call_record_ttl=10.0)
        sharded, clock = make_sharded(config=config)
        establish_call(sharded, clock)
        record = sharded.shards[OWNER].factbase.get(CALL_ID)

        def boom(*result):
            raise RuntimeError("poisoned transition")

        # Both firing hooks are declared slots (EfsmSystem uses
        # __slots__), so they are per-instance patchable: one of them runs
        # on every firing, observable or quiet.
        record.system.on_result = record.system.on_quiet = boom
        clock.advance(0.05)
        sharded.process(dgram(bye_bytes(), CALLEE, CALLER), clock.now())
        assert sharded.media_routes.get(self.MEDIA_KEY) == OWNER
        clock.advance(11.0)
        sharded.collect_garbage()
        assert self.MEDIA_KEY not in sharded.media_routes
        assert sharded.metrics.quarantine_paroles == 0


def test_sharding_absorbs_the_overload_a_single_pipeline_sheds(
        mixed_capture):
    """Under the default watermarks the INVITE flood of the mixed-attack
    capture pushes one pipeline into shedding; spread across four shards
    the same traffic stays under the per-shard watermark.  Apart from the
    capacity alert, detection still agrees."""
    plain = replay_trace(mixed_capture)
    sharded = replay_trace(mixed_capture, shards=4)
    assert plain.metrics.shed_events > 0
    assert sharded.metrics.shed_events == 0

    def detection(run):
        return Counter((round(a.time, 6), a.attack_type, a.call_id,
                        a.source, a.destination, a.machine, a.state)
                       for a in run.alerts
                       if a.attack_type.value != "overload-shed")
    assert detection(sharded) == detection(plain)
