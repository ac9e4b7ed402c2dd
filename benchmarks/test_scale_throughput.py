"""Scale — vids analysis throughput and many-call monitoring.

Not a paper table, but the engineering claim behind Section 7.3's
"vids can monitor thousands of calls at the same time": this benchmark
measures (a) the real-time packet analysis rate of the full pipeline —
classifier, distributor, per-call machines — and (b) the wall-clock cost
of tracking a thousand concurrent calls.
"""

import os

from repro.efsm import ManualClock
from repro.netsim import Datagram, Endpoint
from repro.rtp import RtpPacket
from repro.sip import SipRequest
from repro.vids import DEFAULT_CONFIG, Vids

SDP = ("v=0\r\no=- 1 1 IN IP4 10.1.0.11\r\ns=c\r\nc=IN IP4 10.1.0.11\r\n"
       "t=0 0\r\nm=audio 20000 RTP/AVP 18\r\na=rtpmap:18 G729/8000\r\n")

#: Keep-up floors (operations per second of real time) asserted by the
#: throughput benchmarks and by the CI bench-smoke job.  One table so a
#: re-baselining touches exactly one place.  The floors are deliberately
#: far below typical rates on a developer machine — they catch order-of-
#: magnitude regressions, not run-to-run noise.
KEEP_UP_THRESHOLDS = {
    "test_rtp_analysis_throughput": 20_000,   # RTP packets/s
    "test_sip_analysis_throughput": 6_000,    # SIP dialog messages/s
    "test_sharded_batch_throughput": 20_000,  # RTP packets/s, 4 shards
    "test_supervised_batch_throughput": 18_000,  # RTP packets/s, supervised
}

#: Ceiling on the supervision tier's cost: the supervised cluster
#: (checkpointing on, heartbeats running) must keep at least this
#: fraction of the bare sharded rate measured back-to-back in-process.
SUPERVISED_OVERHEAD_FLOOR = 0.9

#: Measurement rounds per benchmark; the CI bench-smoke job overrides
#: this through the environment.
ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "3")))


def make_vids():
    clock = ManualClock()
    vids = Vids(config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule)
    return vids, clock


def build_invite(call_id="tp@x", media_port=20_000):
    """One serialized INVITE datagram, distinct per (call_id, media_port)."""
    invite = SipRequest("INVITE", "sip:bob@b.example.com",
                        body=SDP.replace("20000", str(media_port)))
    invite.set("Via", "SIP/2.0/UDP 10.1.0.1:5060;branch=z9hG4bKtp")
    invite.set("From", "<sip:alice@a.example.com>;tag=ft")
    invite.set("To", "<sip:bob@b.example.com>")
    invite.set("Call-ID", call_id)
    invite.set("CSeq", "1 INVITE")
    invite.set("Contact", "<sip:alice@10.1.0.11:5060>")
    invite.set("Content-Type", "application/sdp")
    return Datagram(Endpoint("10.1.0.1", 5060), Endpoint("10.2.0.1", 5060),
                    invite.serialize())


def setup_call(vids, clock, call_id="tp@x", media_port=20_000):
    vids.process(build_invite(call_id, media_port), clock.now())


def test_rtp_analysis_throughput(benchmark):
    """Steady-state RTP analysis rate (packets/second of real time)."""
    vids, clock = make_vids()
    setup_call(vids, clock)
    packets = []
    for index in range(2000):
        packet = RtpPacket(18, index + 1, (index + 1) * 160, 0xAA,
                           payload=bytes(20))
        packets.append(Datagram(Endpoint("10.2.0.11", 20_002),
                                Endpoint("10.1.0.11", 20_000),
                                packet.serialize()))

    def burst():
        for datagram in packets:
            clock.advance(0.02)
            vids.process(datagram, clock.now())

    benchmark.extra_info["ops"] = 2000
    benchmark.pedantic(burst, rounds=ROUNDS, iterations=1)
    rate = 2000 / benchmark.stats["mean"]
    print(f"\nRTP analysis rate: {rate:,.0f} packets/s of real time "
          f"(one G.729 call needs ~50 pps/direction)")
    assert vids.metrics.rtp_packets >= 2000
    # Keep-up criterion: a few hundred simultaneous G.729 streams on one
    # core of this (pure-Python) implementation.
    assert rate > KEEP_UP_THRESHOLDS["test_rtp_analysis_throughput"]


def build_dialog(n):
    """The six signaling datagrams of one complete call.

    INVITE (SDP offer), 180, 200 (SDP answer), ACK, BYE, 200 — the message
    mix the paper's Section 7 workload generator drives through the
    testbed.  Distinct Call-ID, tags, branch, callee, and media ports per
    call, so every dialog exercises call creation, media-index updates on
    offer *and* answer, per-callee flood tracking, and teardown.
    """
    call_id = f"tp{n}@x"
    uri = f"sip:u{n}@b.example.com"
    branch = f"z9hG4bKtp{n}"
    from_hdr = f"<sip:alice@a.example.com>;tag=ft{n}"
    offer_port = 20_000 + (n % 10_000) * 2
    answer_port = 40_002 + (n % 10_000) * 2
    # Distinct caller per dialog: a single source IP originating every
    # call in the burst reads as a DRDoS reflection flood
    # (``invite_source_threshold``), and the benchmark would measure the
    # alert path instead of benign analysis.
    caller = f"10.1.{1 + (n // 200) % 200}.{11 + n % 200}"
    # Datagrams travel UA-to-UA: the BYE must come from an address the
    # dialog recorded as a participant (the callee's Contact/SDP host),
    # or every teardown is misread as a third-party BYE attack and the
    # workload measures the attack path instead of the benign one.
    a, b = Endpoint(caller, 5060), Endpoint("10.2.0.11", 5060)
    from repro.sip import SipResponse

    def request(method, cseq, body="", via_suffix=""):
        message = SipRequest(method, uri, body=body)
        message.set("Via",
                    f"SIP/2.0/UDP {caller}:5060;branch={branch}{via_suffix}")
        message.set("From", from_hdr)
        message.set("To", f"<{uri}>" if method == "INVITE"
                    else f"<{uri}>;tag=tt")
        message.set("Call-ID", call_id)
        message.set("CSeq", cseq)
        return message

    def response(status, cseq, body=""):
        message = SipResponse(status, body=body)
        message.set("Via", f"SIP/2.0/UDP {caller}:5060;branch={branch}")
        message.set("From", from_hdr)
        message.set("To", f"<{uri}>;tag=tt")
        message.set("Call-ID", call_id)
        message.set("CSeq", cseq)
        message.set("Contact", "<sip:callee@10.2.0.11:5060>")
        return message

    invite = request("INVITE", "1 INVITE",
                     body=SDP.replace("20000", str(offer_port))
                     .replace("10.1.0.11", caller))
    invite.set("Contact", f"<sip:alice@{caller}:5060>")
    invite.set("Content-Type", "application/sdp")
    ok = response(200, "1 INVITE",
                  body=SDP.replace("20000", str(answer_port))
                  .replace("10.1.0.11", "10.2.0.11"))
    ok.set("Content-Type", "application/sdp")
    bye = SipRequest("BYE", "sip:alice@a.example.com")
    bye.set("Via", f"SIP/2.0/UDP 10.2.0.11:5060;branch={branch}b")
    bye.set("From", f"<{uri}>;tag=tt")
    bye.set("To", "<sip:alice@a.example.com>;tag=ft" + str(n))
    bye.set("Call-ID", call_id)
    bye.set("CSeq", "2 BYE")
    return [
        Datagram(a, b, invite.serialize()),
        Datagram(b, a, response(180, "1 INVITE").serialize()),
        Datagram(b, a, ok.serialize()),
        Datagram(a, b, request("ACK", "1 ACK", via_suffix="a").serialize()),
        Datagram(b, a, bye.serialize()),
        Datagram(a, b, response(200, "2 BYE").serialize()),
    ]


def test_sip_analysis_throughput(benchmark):
    """SIP signaling analysis rate (messages/second of real time).

    The workload is complete dialogs — INVITE/180/200/ACK/BYE/200, the mix
    the paper's workload generator produces — prebuilt and serialized
    *outside* the timed burst, mirroring the RTP benchmark: the number
    measures the IDS pipeline (classify, parse, distribute, flood
    tracking, machine instantiation, teardown), not the traffic
    generator's message-building cost.
    """
    vids, clock = make_vids()
    calls = (ROUNDS * 200) // 6 + 1
    datagrams = [datagram for n in range(calls)
                 for datagram in build_dialog(n)]
    state = {"cursor": 0}

    def burst():
        start = state["cursor"]
        state["cursor"] = start + 200
        for datagram in datagrams[start:start + 200]:
            clock.advance(0.01)
            vids.process(datagram, clock.now())

    benchmark.extra_info["ops"] = 200
    benchmark.pedantic(burst, rounds=ROUNDS, iterations=1)
    rate = 200 / benchmark.stats["mean"]
    print(f"\nSIP signaling analysis rate: {rate:,.0f} messages/s "
          f"of real time")
    assert vids.metrics.calls_created >= (ROUNDS * 200) // 6
    assert vids.metrics.sip_messages >= ROUNDS * 200
    assert rate > KEEP_UP_THRESHOLDS["test_sip_analysis_throughput"]


def test_thousand_concurrent_calls(benchmark):
    """Set up and tear RTP through 1000 concurrently monitored calls."""
    vids, clock = make_vids()

    def run():
        for index in range(1000):
            clock.advance(0.001)
            setup_call(vids, clock, call_id=f"k{index}@x",
                       media_port=20_000 + 2 * index)
        return vids.active_calls

    active = benchmark.pedantic(run, rounds=1, iterations=1)
    total_bytes = vids.factbase.total_state_bytes()
    print(f"\n1000 concurrent calls: {active} active, "
          f"{total_bytes / 1e3:.0f} kB monitoring state")
    assert active == 1000
    assert vids.alerts == []  # distinct callees: no flood tripped


def test_sharded_batch_throughput(benchmark):
    """Sharded analysis rate through the batched ingestion path.

    Four concurrent calls, one per shard (Call-IDs chosen so the CRC-32
    assignment covers all four shards), media interleaved round-robin in
    one time-ordered batch.  On one core this measures the facade's
    routing overhead against ``test_rtp_analysis_throughput``
    (docs/SCALING.md).
    """
    from repro.vids import ShardedVids, shard_for_call

    call_ids = ("shard0@bench", "shard2@bench", "shard6@bench",
                "shard4@bench")
    assert sorted(shard_for_call(c, 4) for c in call_ids) == [0, 1, 2, 3]

    clock = ManualClock()
    sharded = ShardedVids(shards=4, config=DEFAULT_CONFIG,
                          clock_now=clock.now, timer_scheduler=clock.schedule)
    for index, call_id in enumerate(call_ids):
        setup_call(sharded, clock, call_id=call_id,
                   media_port=20_000 + 2 * index)
    assert len(sharded.media_routes) == 4

    state = {"base": 0.0, "seq": 0}

    def build_batch():
        base = state["base"]
        items = []
        for index in range(2000):
            state["seq"] += 1
            packet = RtpPacket(18, state["seq"] & 0xFFFF,
                               state["seq"] * 160, 0xAA, payload=bytes(20))
            items.append((
                Datagram(Endpoint("10.2.0.11", 20_002),
                         Endpoint("10.1.0.11", 20_000 + 2 * (index % 4)),
                         packet.serialize()),
                base + 0.02 * (index + 1),
            ))
        state["base"] = base + 0.02 * 2000 + 1.0
        return (items,), {}

    def burst(items):
        sharded.process_batch(items, clock=clock)

    benchmark.extra_info["ops"] = 2000
    benchmark.pedantic(burst, setup=build_batch, rounds=ROUNDS, iterations=1)
    rate = 2000 / benchmark.stats["mean"]
    print(f"\nSharded RTP batch rate: {rate:,.0f} packets/s of real time "
          f"(4 shards)")
    assert sharded.metrics.rtp_packets >= 2000 * ROUNDS
    # Every packet matched a media route: none fell to the orphan path.
    per_shard = [s.metrics.rtp_packets for s in sharded.shards]
    assert all(count > 0 for count in per_shard)
    assert rate > KEEP_UP_THRESHOLDS["test_sharded_batch_throughput"]


def test_supervised_batch_throughput(benchmark):
    """Supervised-cluster analysis rate with checkpointing on.

    The same four-call round-robin batch as ``test_sharded_batch_
    throughput``, but dispatched through the ShardSupervisor (default
    cadence 64, heartbeats every 0.5s of simulated time).  A bare
    ShardedVids processes identical traffic in thin slices interleaved
    with the supervised ones, and the supervision tier must keep >=90%
    of the bare rate over the accumulated totals — the
    docs/ROBUSTNESS.md checkpoint-overhead budget.
    """
    import time

    from repro.vids import (ClusterConfig, ShardedVids, SupervisedCluster,
                            shard_for_call)

    call_ids = ("shard0@bench", "shard2@bench", "shard6@bench",
                "shard4@bench")
    assert sorted(shard_for_call(c, 4) for c in call_ids) == [0, 1, 2, 3]

    def build_pipeline(supervised):
        clock = ManualClock()
        if supervised:
            pipeline = SupervisedCluster(
                shards=4, config=DEFAULT_CONFIG, clock_now=clock.now,
                timer_scheduler=clock.schedule,
                cluster=ClusterConfig(checkpoint_cadence=64))
        else:
            pipeline = ShardedVids(shards=4, config=DEFAULT_CONFIG,
                                   clock_now=clock.now,
                                   timer_scheduler=clock.schedule)
        for index, call_id in enumerate(call_ids):
            setup_call(pipeline, clock, call_id=call_id,
                       media_port=20_000 + 2 * index)
        assert len(pipeline.media_routes) == 4
        return pipeline, clock, {"base": clock.now(), "seq": 0}

    def build_batch(state):
        base = state["base"]
        items = []
        for index in range(2000):
            state["seq"] += 1
            packet = RtpPacket(18, state["seq"] & 0xFFFF,
                               state["seq"] * 160, 0xAA, payload=bytes(20))
            items.append((
                Datagram(Endpoint("10.2.0.11", 20_002),
                         Endpoint("10.1.0.11", 20_000 + 2 * (index % 4)),
                         packet.serialize()),
                base + 0.02 * (index + 1),
            ))
        state["base"] = base + 0.02 * 2000 + 1.0
        return items

    # Overhead gate: interleave *thin slices* of bare and supervised work
    # and compare the accumulated totals.  Absolute rates on a shared box
    # swing by 2x between runs and even adjacent full rounds do not track
    # each other, but ~hundred-packet slices alternated back-to-back see
    # the same scheduler weather, so the ratio of the two running totals
    # is stable to about a percent.
    slice_size = 125
    bare, bare_clock, bare_state = build_pipeline(supervised=False)
    supervised, clock, state = build_pipeline(supervised=True)
    bare.process_batch(build_batch(bare_state), clock=bare_clock)  # warmup
    supervised.process_batch(build_batch(state), clock=clock)
    compare_rounds = max(ROUNDS, 6)
    bare_total = supervised_total = 0.0
    bare_best = float("inf")

    def timed_slice(pipeline, pipeline_clock, items, offset):
        chunk = items[offset:offset + slice_size]
        started = time.perf_counter()
        pipeline.process_batch(chunk, clock=pipeline_clock)
        return time.perf_counter() - started

    for round_index in range(compare_rounds):
        bare_items = build_batch(bare_state)
        supervised_items = build_batch(state)
        round_bare = 0.0
        # Alternate which side leads: whoever runs right after the
        # allocation-heavy build_batch absorbs its GC sweeps.
        bare_leads = round_index % 2 == 0
        for offset in range(0, len(bare_items), slice_size):
            if bare_leads:
                round_bare += timed_slice(bare, bare_clock,
                                          bare_items, offset)
                supervised_total += timed_slice(supervised, clock,
                                                supervised_items, offset)
            else:
                supervised_total += timed_slice(supervised, clock,
                                                supervised_items, offset)
                round_bare += timed_slice(bare, bare_clock,
                                          bare_items, offset)
        bare_total += round_bare
        bare_best = min(bare_best, round_bare)

    def burst(items):
        supervised.process_batch(items, clock=clock)

    benchmark.extra_info["ops"] = 2000
    benchmark.pedantic(burst, setup=lambda: ((build_batch(state),), {}),
                       rounds=ROUNDS, iterations=1)
    rate = 2000 / benchmark.stats["mean"]
    kept = bare_total / supervised_total
    bare_rate = 2000 / bare_best
    overhead = 1.0 - kept
    print(f"\nSupervised RTP batch rate: {rate:,.0f} packets/s of real time "
          f"(4 members, cadence 64; checkpoint overhead {overhead:.1%} vs "
          f"bare sharded {bare_rate:,.0f} packets/s)")

    # Supervision actually did its job during the measurement.
    cluster = supervised.cluster_metrics
    assert cluster.checkpoints_taken > 4
    assert cluster.members_down == 0
    assert supervised.metrics.rtp_packets >= 2000 * ROUNDS
    per_shard = [s.metrics.rtp_packets for s in supervised.shards]
    assert all(count > 0 for count in per_shard)

    assert rate > KEEP_UP_THRESHOLDS["test_supervised_batch_throughput"]
    # The checkpoint-overhead budget (docs/ROBUSTNESS.md): the supervised
    # totals keep >=90% of the interleaved bare sharded totals.
    assert kept > SUPERVISED_OVERHEAD_FLOOR, \
        f"supervision overhead {overhead:.1%} exceeds " \
        f"{1 - SUPERVISED_OVERHEAD_FLOOR:.0%}"
