"""Integration: benign traffic raises no alarms (paper Section 7.5).

"For those attacks which have already been identified and recorded with
attack patterns in the attack signature database, vids demonstrates 100%
detection accuracy with zero false positive."  The zero-false-positive half
is asserted here on attack-free runs.
"""

from repro.telephony import (
    ScenarioParams,
    TestbedParams,
    WorkloadParams,
    run_scenario,
)


def test_benign_run_produces_zero_alerts():
    result = run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=3),
        workload=WorkloadParams(mean_interarrival=30.0, mean_duration=40.0,
                                horizon=300.0),
        with_vids=True,
        drain_time=90.0,
    ))
    assert result.placed_calls >= 5
    assert result.vids.alerts == [], [str(a) for a in result.vids.alerts]


def test_benign_run_with_loss_and_cancel_still_clean():
    # Lossy network exercises every retransmission path through vids.
    params = ScenarioParams(
        testbed=TestbedParams(seed=8, internet_loss=0.02),
        workload=WorkloadParams(mean_interarrival=20.0, mean_duration=30.0,
                                horizon=240.0),
        with_vids=True,
        drain_time=120.0,
    )
    result = run_scenario(params)
    assert result.placed_calls >= 5
    assert result.vids.alerts == [], [str(a) for a in result.vids.alerts]


def test_caller_cancel_is_not_flagged():
    """A caller hanging up while ringing sends a genuine CANCEL."""
    from repro.telephony import build_testbed
    from repro.vids import Vids

    testbed = build_testbed(TestbedParams(seed=4, phones_per_network=2))
    vids = Vids(sim=testbed.sim)
    testbed.attach_processor(vids)
    testbed.register_all()
    testbed.sim.run(until=2.0)
    # Callee answers very slowly, caller gives up while ringing.
    testbed.phones_b[0].profile.answer_delay = (30.0, 30.0)
    call = testbed.phones_a[0].place_call("sip:b1@b.example.com", 10.0)
    testbed.sim.schedule(3.0, call.hangup)
    testbed.network.run(until=60.0)
    assert call.state == "cancelled"
    assert vids.alerts == [], [str(a) for a in vids.alerts]
