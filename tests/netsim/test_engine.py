"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_processed == 0
    assert sim.pending_events == 0
    assert sim.peek_time() is None


def test_schedule_and_run_in_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0
    assert sim.events_processed == 3


def test_same_time_fifo_order():
    sim = Simulator()
    seen = []
    for tag in range(10):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == list(range(10))


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    sim.run(until=20.0)
    assert seen == ["early", "late"]


def test_run_until_beyond_queue_advances_clock():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_nested_scheduling_from_callback():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(0.5, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 1.5)]


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, seen.append, sim.now))
    sim.run()
    assert seen == [1.0]


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    seen = []
    timer = sim.schedule(1.0, seen.append, "x")
    assert timer.active
    timer.cancel()
    assert not timer.active
    sim.run()
    assert seen == []


def test_timer_cancel_after_fire_is_noop():
    sim = Simulator()
    seen = []
    timer = sim.schedule(1.0, seen.append, "x")
    sim.run()
    timer.cancel()  # must not raise
    assert seen == ["x"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_step_dispatches_one_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(2.0, seen.append, 2)
    assert sim.step()
    assert seen == [1]
    assert sim.step()
    assert not sim.step()


def test_max_events_limit():
    sim = Simulator()
    seen = []
    for index in range(5):
        sim.schedule(float(index + 1), seen.append, index)
    sim.run(max_events=2)
    assert seen == [0, 1]


def test_reentrant_run_rejected():
    sim = Simulator()

    def evil():
        sim.run()

    sim.schedule(1.0, evil)
    with pytest.raises(SimulationError):
        sim.run()


def test_peek_time_skips_cancelled():
    sim = Simulator()
    t1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    t1.cancel()
    assert sim.peek_time() == 2.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.integers(0, 1)), max_size=40))
def test_property_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    timers = []
    for delay, keep in entries:
        timers.append((sim.schedule(delay, fired.append, delay), keep))
    for timer, keep in timers:
        if not keep:
            timer.cancel()
    sim.run()
    assert len(fired) == sum(keep for _, keep in entries)


def test_timer_inactive_after_firing_at_now():
    """A timer whose event fired at time == sim.now must report inactive.

    Regression test: ``active`` used to be derived from ``time >= now``,
    so a timer that had just fired (clock still equal to its fire time)
    looked pending.
    """
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    assert timer.active
    sim.run()
    assert sim.now == 1.0 == timer.time
    assert not timer.active


def test_timer_active_observed_inside_callback():
    sim = Simulator()
    observed = []
    timer = sim.schedule(1.0, lambda: observed.append(timer.active))
    sim.run()
    assert observed == [False]


def test_pending_events_is_exact_and_cheap():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    timers[0].cancel()
    timers[1].cancel()
    timers[1].cancel()  # double-cancel must not double-count
    assert sim.pending_events == 8
    sim.run(until=5.0)
    assert sim.pending_events == 5
    sim.run()
    assert sim.pending_events == 0


def test_heap_compaction_under_mass_cancellation():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
    for timer in timers[:400]:
        timer.cancel()
    # Compaction kicked in: the internal queue is mostly live again.
    assert sim.pending_events == 100
    assert len(sim._queue) <= 2 * sim.pending_events + 1
    sim.run()
    assert sim.events_processed == 100
