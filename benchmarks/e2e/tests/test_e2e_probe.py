"""The speed probe: scaling arithmetic on hand-set passes, and the timer."""

import _paths  # noqa: F401 - import path side effect

import signal
import time

import pytest

import probe


def hand_set(passes):
    """A probe whose passes are given as (start ns, duration ns)."""
    speed_probe = probe.SpeedProbe()
    for at, took in passes:
        speed_probe.at.append(at)
        speed_probe.took.append(took)
    return speed_probe


NOMINAL = int(probe.NOMINAL_NS)


def test_between_averages_the_speed_of_the_passes_inside():
    # Nominal speed, half speed, and a pass outside the interval.
    speed_probe = hand_set([(100, NOMINAL), (200, 2 * NOMINAL),
                            (900, 4 * NOMINAL)])
    speed, in_passes = speed_probe.between(50, 500)
    assert speed == pytest.approx(0.75)
    assert in_passes == 3 * NOMINAL


def test_between_falls_back_to_the_nearest_pass():
    speed_probe = hand_set([(100, NOMINAL), (900, 2 * NOMINAL)])
    assert speed_probe.between(300, 400) == (1.0, 0)
    assert speed_probe.between(700, 800) == (0.5, 0)
    assert speed_probe.between(2000, 3000) == (0.5, 0)


def test_at_nominal_takes_the_passes_out_and_scales_the_rest():
    second = 1_000_000_000
    speed_probe = hand_set([(second // 4, 2 * NOMINAL),
                            (second // 2, 2 * NOMINAL)])
    in_passes = 4 * NOMINAL / 1e9
    assert speed_probe.at_nominal(0, second, 1.0) == \
        pytest.approx((1.0 - in_passes) * 0.5)
    assert speed_probe.at_nominal(0, second, 0.9) == \
        pytest.approx((0.9 - in_passes) * 0.5)


def test_scale_uses_the_two_passes_around_each_stretch():
    speed_probe = hand_set([(0, NOMINAL), (10, 2 * NOMINAL),
                            (20, 4 * NOMINAL)])
    scaled = speed_probe.scale([100.0, 100.0, 100.0], [0, 2, 3])
    assert scaled == pytest.approx([75.0, 75.0, 37.5])


def test_ticking_passes_come_from_the_timer_and_the_handler_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    speed_probe = probe.SpeedProbe()
    begin = time.perf_counter_ns()
    with speed_probe.ticking(interval=0.002):
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    end = time.perf_counter_ns()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # One at each end and one per tick; a busy box may merge some ticks.
    assert len(speed_probe.at) >= 12
    assert list(speed_probe.at) == sorted(speed_probe.at)
    speed, in_passes = speed_probe.between(begin, end)
    assert 0.01 < speed < 10.0
    assert 0 < in_passes < end - begin
