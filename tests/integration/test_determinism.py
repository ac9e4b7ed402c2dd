"""Whole-scenario determinism: same seed, bit-identical results.

Reproducibility is the reason every stochastic choice draws from named
seeded streams, and every generated id from its simulator's own id
streams — two runs of the same parameters must agree on every call, every
measurement, and every alert, in one process or in two.
"""

import sys

import pytest

from repro.attacks import ByeTeardownAttack
from repro.telephony import (
    ScenarioParams,
    TestbedParams,
    WorkloadParams,
    run_scenario,
)

PARAMS = dict(
    testbed=TestbedParams(seed=13, phones_per_network=3),
    workload=WorkloadParams(mean_interarrival=20.0, mean_duration=60.0,
                            horizon=120.0),
    with_vids=True,
    drain_time=60.0,
)


def fingerprint(result):
    return {
        "calls": [(r.call_id, r.caller, r.callee, r.is_caller_side,
                   round(r.placed_at, 9), r.end_reason,
                   r.rtp_packets_received)
                  for r in result.calls],
        "setup": [round(d, 12) for d in result.setup_delays()],
        "alerts": [(round(a.time, 9), a.attack_type.value, a.call_id)
                   for a in result.vids.alerts],
        "cpu": round(result.cpu_utilization, 12),
    }


def test_identical_seeds_reproduce_identical_runs():
    first = run_scenario(ScenarioParams(
        attacks=(ByeTeardownAttack(50.0, spoof="peer"),), **PARAMS))
    second = run_scenario(ScenarioParams(
        attacks=(ByeTeardownAttack(50.0, spoof="peer"),), **PARAMS))
    assert fingerprint(first) == fingerprint(second)


def test_different_seeds_diverge():
    base = run_scenario(ScenarioParams(**PARAMS))
    other_params = dict(PARAMS)
    other_params["testbed"] = TestbedParams(seed=14, phones_per_network=3)
    other = run_scenario(ScenarioParams(**other_params))
    assert fingerprint(base) != fingerprint(other)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="tools/sim_ident.expected was recorded on Python "
                           "3.11; the capture is untried on other versions")
def test_mixed_capture_is_the_pinned_fixture23_capture(sim_ident,
                                                       mixed_capture):
    """The capture the tier harness replays is the one ``make sim-ident``
    pins, whatever tests built a testbed before it."""
    expected = sim_ident.REPO_ROOT / "tools" / "sim_ident.expected"
    count, digest = sim_ident.pcap_fingerprint(mixed_capture)
    assert f"fixture23 {count} {digest} " in expected.read_text()
