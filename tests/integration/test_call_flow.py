"""Integration: full calls with media across the Figure-7 testbed."""

import pytest

from repro.telephony import (
    ScenarioParams,
    TestbedParams,
    WorkloadParams,
    build_testbed,
    run_scenario,
)


def test_single_call_with_media_and_stats():
    testbed = build_testbed(TestbedParams(phones_per_network=2, seed=1))
    testbed.register_all()
    testbed.sim.run(until=2.0)
    caller = testbed.phones_a[0]
    callee = testbed.phones_b[0]
    caller.place_call(f"sip:{callee.aor.address_of_record}", duration=10.0)
    testbed.network.run(until=40.0)

    assert len(caller.stats) == 1
    record = caller.stats[0]
    assert record.answered
    assert record.final_state == "terminated"
    assert record.end_reason == "local-bye"
    assert record.setup_delay is not None and record.setup_delay < 1.0
    # Media flowed both ways with testbed-plausible delay (≥ 50 ms cloud).
    assert record.rtp_packets_received > 50
    assert 0.045 < record.rtp_mean_delay < 0.2
    callee_record = callee.stats[0]
    assert callee_record.rtp_packets_received > 50
    assert callee_record.end_reason == "remote-bye"


def test_phone_lookup_by_user():
    testbed = build_testbed(TestbedParams(phones_per_network=2, seed=1))
    assert testbed.phone("a1") is testbed.phones_a[0]
    assert testbed.phone("b2") is testbed.phones_b[1]
    with pytest.raises(KeyError):
        testbed.phone("zz")


def test_busy_phone_rejects():
    testbed = build_testbed(TestbedParams(phones_per_network=1, seed=1))
    testbed.register_all()
    testbed.sim.run(until=2.0)
    testbed.phones_b[0].accept_calls = False
    call = testbed.phones_a[0].place_call("sip:b1@b.example.com", 10.0)
    testbed.network.run(until=20.0)
    assert call.state == "failed"
    assert call.end_reason == "rejected-486"


def test_scenario_runner_paired_runs_same_workload():
    workload = WorkloadParams(mean_interarrival=30.0, mean_duration=20.0,
                              horizon=120.0)
    on = run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=5, phones_per_network=3),
        workload=workload, with_vids=True, drain_time=60.0))
    off = run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=5, phones_per_network=3),
        workload=workload, with_vids=False, drain_time=60.0))
    assert on.placed_calls == off.placed_calls >= 1
    # Identical call pattern: same call ids in the same order.
    on_calls = [c.call_id for c in on.calls if c.is_caller_side]
    off_calls = [c.call_id for c in off.calls if c.is_caller_side]
    assert len(on_calls) == len(off_calls)
    # vids adds setup delay; baseline does not.
    assert on.mean_setup_delay > off.mean_setup_delay
    assert off.cpu_utilization == 0.0
    assert on.cpu_utilization > 0.0


def test_calls_complete_under_internet_loss():
    workload = WorkloadParams(mean_interarrival=20.0, mean_duration=15.0,
                              horizon=100.0)
    result = run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=9, phones_per_network=3),
        workload=workload, with_vids=True, drain_time=90.0))
    assert result.placed_calls >= 2
    completed = [c for c in result.calls
                 if c.is_caller_side and c.final_state == "terminated"]
    assert len(completed) >= result.placed_calls - 1
