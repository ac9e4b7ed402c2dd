"""Property-based tests for the EFSM interpreter and vids machines."""

from hypothesis import given, settings, strategies as st

from repro.efsm import Efsm, EfsmSystem, Event
from repro.vids import DEFAULT_CONFIG, build_rtp_machine, build_sip_machine
from repro.vids.sync import RTP_MACHINE, SIP_MACHINE


def _fresh_system():
    # A real scheduler is required: machine actions may arm timers (e.g.
    # the RTP machine's in-flight timer T when a BYE crosses).
    from repro.efsm import ManualClock

    clock = ManualClock()
    system = EfsmSystem(clock_now=clock.now, timer_scheduler=clock.schedule)
    system.add_machine(build_sip_machine(DEFAULT_CONFIG))
    system.add_machine(build_rtp_machine(DEFAULT_CONFIG))
    return system


_sip_events = st.sampled_from(["INVITE", "ACK", "BYE", "CANCEL", "RESPONSE"])
_ips = st.sampled_from(["10.1.0.11", "10.2.0.11", "10.1.0.1", "6.6.6.6"])


@st.composite
def random_sip_event(draw):
    name = draw(_sip_events)
    args = {
        "src_ip": draw(_ips),
        "dst_ip": draw(_ips),
        "src_port": 5060,
        "dst_port": 5060,
        "call_id": "fuzz@x",
        "from_tag": draw(st.sampled_from(["ft", None])),
        "to_tag": draw(st.sampled_from(["tt", None])),
        "branch": draw(st.sampled_from(["z9hG4bK1", "z9hG4bK2"])),
        "cseq_num": draw(st.integers(1, 3)),
        "cseq_method": draw(st.sampled_from(["INVITE", "BYE", "CANCEL"])),
        "contact_host": draw(_ips),
        "via_hosts": ("10.1.0.1", "10.1.0.11"),
    }
    if name == "RESPONSE":
        args["status"] = draw(st.sampled_from(
            [100, 180, 183, 200, 404, 486, 487, 503]))
    if name == "INVITE" and draw(st.booleans()):
        args.update(sdp_addr="10.1.0.11", sdp_port=20_000,
                    sdp_pts=(18,), sdp_ptime=20)
    return Event(name, args)


@given(st.lists(random_sip_event(), max_size=25))
@settings(max_examples=60, deadline=None)
def test_sip_machine_never_crashes_and_stays_deterministic(events):
    """Any event sequence executes without exceptions: at most one enabled
    transition per step (determinism), arbitrary garbage is either absorbed
    or recorded as a deviation, never an error."""
    system = _fresh_system()
    for event in events:
        system.inject(SIP_MACHINE, event)
    machine = system.machines[SIP_MACHINE]
    assert machine.state in machine.definition.states
    # Every firing is counted: one per injected event, plus the δs.
    assert system.deliveries >= len(events)


@st.composite
def random_rtp_event(draw):
    return Event("RTP_PACKET", {
        "src_ip": draw(_ips), "dst_ip": draw(_ips),
        "src_port": 20_000, "dst_port": 20_002,
        "ssrc": draw(st.integers(0, 2 ** 32 - 1)),
        "seq": draw(st.integers(0, 2 ** 16 - 1)),
        "ts": draw(st.integers(0, 2 ** 32 - 1)),
        "pt": draw(st.integers(0, 127)),
        "size": 32, "marker": False,
        "direction": draw(st.sampled_from(["to_caller", "to_callee"])),
    })


@given(st.lists(random_rtp_event(), max_size=30))
@settings(max_examples=60, deadline=None)
def test_rtp_machine_never_crashes(events):
    system = _fresh_system()
    # Open the session first, as the distributor would after an INVITE/200.
    from repro.efsm import Event as E
    from repro.vids.sync import DELTA_SESSION_OFFER, SIP_TO_RTP
    system.globals.update(g_offer_pts=(18,), g_answer_pts=(18,),
                          g_ptime_ms=20)
    system.inject(RTP_MACHINE, E(DELTA_SESSION_OFFER, {}, channel=SIP_TO_RTP))
    for event in events:
        system.inject(RTP_MACHINE, event)
    machine = system.machines[RTP_MACHINE]
    assert machine.state in machine.definition.states


@given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                          st.sampled_from(["ping", "pong", "noise"])),
                max_size=30))
@settings(max_examples=50, deadline=None)
def test_system_accounting_invariants(trace):
    """firings = deviations + non-deviations; attacks only via transitions."""
    system = EfsmSystem()
    for name in ("a", "b"):
        machine = Efsm(name, "s0")
        machine.add_state("s1")
        machine.add_transition("s0", "ping", "s1")
        machine.add_transition("s1", "pong", "s0")
        system.add_machine(machine)
    results = []
    for machine_name, event_name in trace:
        results.extend(system.inject(machine_name, Event(event_name)))
    # No machine here sends, so each injection is exactly one firing, and
    # ``deliveries`` is the one counter of them.
    assert system.deliveries == len(results) == len(trace)
    assert [r.event.name for r in results] == [name for _, name in trace]
    assert all(r.transition is not None
               for r in results if not r.deviation)
    assert not any(r.attack for r in results)
