"""Micro-benchmarks for the per-packet fast path.

The scale benchmarks (test_scale_throughput.py) time the whole pipeline;
these isolate its three hottest layers so a regression can be attributed
without profiling: SIP wire parsing, SIP serialization, and raw per-event
EFSM dispatch (one delivered event through guard evaluation, firing, and
result recording — no vids bookkeeping around it).

Every benchmark publishes ``extra_info["ops"]`` (operations per round), so
the mean round time in a pytest-benchmark report converts to an ops/s rate.
"""

import os

from repro.efsm import Efsm, EfsmSystem, Event, ManualClock
from repro.efsm.guards import helper, v, write, x
from repro.sip import SipRequest
from repro.sip.message import parse_message

from test_scale_throughput import SDP

ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "3")))

_PARSE_OPS = 1000
_SERIALIZE_OPS = 1000
_DISPATCH_OPS = 5000


def _example_invite() -> SipRequest:
    invite = SipRequest("INVITE", "sip:bob@b.example.com", body=SDP)
    invite.set("Via", "SIP/2.0/UDP 10.1.0.1:5060;branch=z9hG4bKmb")
    invite.set("From", "<sip:alice@a.example.com>;tag=mb")
    invite.set("To", "<sip:bob@b.example.com>")
    invite.set("Call-ID", "micro@bench")
    invite.set("CSeq", "1 INVITE")
    invite.set("Contact", "<sip:alice@10.1.0.11:5060>")
    invite.set("Content-Type", "application/sdp")
    return invite


def test_sip_parse_throughput(benchmark):
    """parse_message() on a realistic INVITE-with-SDP wire image."""
    wire = _example_invite().serialize()

    def burst():
        for _ in range(_PARSE_OPS):
            parse_message(wire)

    benchmark.extra_info["ops"] = _PARSE_OPS
    benchmark.pedantic(burst, rounds=ROUNDS, iterations=1)
    rate = _PARSE_OPS / benchmark.stats["mean"]
    print(f"\nSIP parse rate: {rate:,.0f} messages/s")
    assert parse_message(wire).method == "INVITE"


def test_sip_serialize_throughput(benchmark):
    """serialize() on a parsed message (header join + Content-Length)."""
    message = parse_message(_example_invite().serialize())

    def burst():
        for _ in range(_SERIALIZE_OPS):
            message.serialize()

    benchmark.extra_info["ops"] = _SERIALIZE_OPS
    benchmark.pedantic(burst, rounds=ROUNDS, iterations=1)
    rate = _SERIALIZE_OPS / benchmark.stats["mean"]
    print(f"\nSIP serialize rate: {rate:,.0f} messages/s")
    assert b"INVITE" in message.serialize()


def _plus_one(count):
    return count + 1


def test_efsm_dispatch_throughput(benchmark):
    """Raw EFSM event dispatch: guard probe + firing + result record."""
    definition = Efsm("micro", "IDLE")
    definition.add_state("IDLE")
    definition.add_state("BUSY")
    definition.declare(count=0)

    bump = write("count", helper(_plus_one, v("count")))
    definition.add_transition(
        "IDLE", "PING", "BUSY", predicate=x("n", 0) >= 0, action=bump)
    definition.add_transition(
        "BUSY", "PING", "IDLE", predicate=x("n", 0) >= 0, action=bump)

    clock = ManualClock()
    system = EfsmSystem(clock_now=clock.now, timer_scheduler=clock.schedule)
    system.add_machine(definition)
    events = [Event("PING", {"n": i}, time=float(i))
              for i in range(_DISPATCH_OPS)]

    def burst():
        for event in events:
            system.inject("micro", event)

    benchmark.extra_info["ops"] = _DISPATCH_OPS
    benchmark.pedantic(burst, rounds=ROUNDS, iterations=1)
    rate = _DISPATCH_OPS / benchmark.stats["mean"]
    print(f"\nEFSM dispatch rate: {rate:,.0f} events/s")
    assert system.machines["micro"].variables["count"] >= _DISPATCH_OPS
