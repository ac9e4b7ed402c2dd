"""Soak test: chaotic but benign usage must stay exception- and alert-free.

Random calls, random hangup/cancel timing, concurrent calls, a lossy
Internet — every call leg must reach a terminal state and vids must stay
silent.  This is the strongest no-false-positive statement in the suite.
"""

import pytest

from repro.telephony import TestbedParams, build_testbed
from repro.vids import Vids


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaotic_benign_traffic_clean(seed):
    testbed = build_testbed(TestbedParams(
        phones_per_network=4, seed=seed, internet_loss=0.02))
    vids = Vids(sim=testbed.sim)
    testbed.attach_processor(vids)
    testbed.register_all()
    testbed.sim.run(until=2.0)

    rng = testbed.network.streams.stream("soak")
    calls = []
    time = 3.0
    for index in range(12):
        caller = testbed.phones_a[rng.randrange(4)]
        callee = testbed.phones_b[rng.randrange(4)]
        duration = rng.uniform(0.5, 40.0)   # includes cancel-while-ringing

        def place(caller=caller, callee=callee, duration=duration):
            call = caller.place_call(
                f"sip:{callee.aor.address_of_record}", duration)
            calls.append(call)
            # Some calls get hung up almost immediately (CANCEL path).
            if duration < 2.0:
                caller.sim.schedule(duration, call.hangup)

        testbed.sim.schedule_at(time, place)
        time += rng.uniform(0.5, 20.0)

    testbed.network.run(until=time + 120.0)

    assert len(calls) == 12
    terminal = {"terminated", "cancelled", "failed"}
    for call in calls:
        assert call.state in terminal, call
    assert vids.alerts == [], [str(a) for a in vids.alerts]
    # Every record vids created was (or will be) reclaimed.
    assert vids.metrics.calls_created >= 10
    testbed.sim.run(until=testbed.sim.now + 3700.0)
    vids.factbase.collect_garbage()
    assert vids.active_calls == 0
