"""Acceptance: a seeded chaos run over the enterprise scenario.

Corruption + duplication + burst loss + a link flap on the vids perimeter
link, a call poisoned mid-run (simulated state-machine bug), and a
concurrent INVITE flood.  The run must complete without an unhandled
exception, quarantine exactly the poisoned call, still detect the flood,
report malformed/quarantine/shed counts — and reproduce identical counts
under the same seed.
"""

import pytest

from repro.attacks import InviteFloodAttack
from repro.netsim import FaultPlan
from repro.telephony import (
    ScenarioParams,
    TestbedParams,
    WorkloadParams,
    run_scenario,
)
from repro.vids import DEFAULT_CONFIG, AttackType

POISON_AT = 30.0

CHAOS_PLAN = FaultPlan(
    seed=77,
    corrupt_rate=0.02,
    corrupt_bits=4,
    truncate_rate=0.005,
    duplicate_rate=0.02,
    reorder_rate=0.01,
    reorder_delay=0.02,
    burst_enter=0.002,
    burst_exit=0.3,
    loss_bad=0.8,
    flaps=((70.0, 71.0),),
)

# Low watermarks so the INVITE flood demonstrably pushes vids into
# signaling-only mode and back out within the run.
CHAOS_VIDS = DEFAULT_CONFIG.with_overrides(shed_high_watermark=0.3,
                                           shed_low_watermark=0.1)

WORKLOAD = WorkloadParams(mean_interarrival=20.0, mean_duration=120.0,
                          horizon=80.0)


def poison_hook(poisoned):
    """Schedule a deterministic mid-run poisoning of one tracked call."""

    def hook(testbed, vids, sim):
        def poison():
            records = vids.factbase.records
            if not records:
                sim.schedule(1.0, poison)
                return
            call_id = min(records)  # deterministic pick

            def boom(*result):
                raise RuntimeError("chaos-poisoned transition")

            # Both firing hooks are declared slots, so they stay
            # per-instance patchable; one of them runs on every firing of
            # this call, observable or quiet, poisoning exactly one record.
            system = records[call_id].system
            system.on_result = system.on_quiet = boom
            poisoned.append(call_id)

        sim.schedule_at(POISON_AT, poison)

    return hook


def run_chaos(seed=23):
    poisoned = []
    result = run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=seed, phones_per_network=4),
        workload=WORKLOAD,
        with_vids=True,
        vids_config=CHAOS_VIDS,
        attacks=(InviteFloodAttack(40.0, count=20, interval=0.02),),
        drain_time=60.0,
        fault_plan=CHAOS_PLAN,
        hooks=(poison_hook(poisoned),),
    ))
    return result, poisoned


_CACHE = {}


def chaos_run(seed=23):
    if seed not in _CACHE:
        _CACHE[seed] = run_chaos(seed)
    return _CACHE[seed]


def test_chaos_run_completes_and_contains_the_poisoned_call():
    result, poisoned = chaos_run()
    vids = result.vids
    assert len(poisoned) == 1

    # Exactly the poisoned call was quarantined; the IDS survived.
    assert vids.metrics.internal_errors == 1
    assert vids.metrics.calls_quarantined == 1
    assert vids.factbase.is_quarantined(poisoned[0])
    alerts = vids.alert_manager.by_type(AttackType.IDS_INTERNAL)
    assert len(alerts) == 1
    assert alerts[0].call_id == poisoned[0]


def test_chaos_run_still_detects_the_concurrent_attack():
    result, _ = chaos_run()
    assert result.vids.alert_count(AttackType.INVITE_FLOOD) >= 1


def test_chaos_run_reports_fault_and_robustness_counts():
    result, _ = chaos_run()
    vids = result.vids
    stats = result.faulty_link.stats
    assert stats.corrupted > 0
    assert stats.duplicated > 0
    assert stats.dropped_burst + stats.dropped_flap > 0
    metrics = vids.metrics
    assert (metrics.malformed_sip + metrics.malformed_rtp
            + metrics.malformed_rtcp) > 0
    summary = vids.summary()
    for key in ("malformed_sip", "malformed_rtp", "malformed_rtcp",
                "calls_quarantined", "internal_errors",
                "packets_shed", "shed_events"):
        assert key in summary


def test_chaos_run_sheds_under_the_invite_flood_and_recovers():
    result, _ = chaos_run()
    vids = result.vids
    assert vids.metrics.shed_events >= 1
    assert vids.metrics.packets_shed > 0
    assert not vids.shedding  # recovered by the end of the run
    assert vids.metrics.shed_intervals


def test_same_seed_reproduces_identical_counts():
    first, first_poisoned = chaos_run()
    second, second_poisoned = run_chaos(seed=23)
    assert len(first_poisoned) == 1
    assert first_poisoned == second_poisoned
    assert first.vids.summary() == second.vids.summary()
    assert (first.faulty_link.stats.as_dict()
            == second.faulty_link.stats.as_dict())
    assert first.alerts_by_type() == second.alerts_by_type()


@pytest.mark.chaos
def test_heavy_chaos_sweep_never_crashes():
    """`make chaos`: crank every fault rate well past realistic levels and
    assert the pipeline's survivability contract over multiple seeds."""
    heavy = CHAOS_PLAN.with_overrides(corrupt_rate=0.15, truncate_rate=0.05,
                                      duplicate_rate=0.1, reorder_rate=0.05,
                                      burst_enter=0.01, loss_bad=1.0,
                                      flaps=((40.0, 45.0), (70.0, 72.0)))
    for seed in (1, 2, 3):
        poisoned = []
        result = run_scenario(ScenarioParams(
            testbed=TestbedParams(seed=seed, phones_per_network=4),
            workload=WORKLOAD,
            with_vids=True,
            vids_config=CHAOS_VIDS,
            attacks=(InviteFloodAttack(40.0, count=20, interval=0.02),),
            drain_time=60.0,
            fault_plan=heavy.with_overrides(seed=seed),
            hooks=(poison_hook(poisoned),),
        ))
        vids = result.vids
        assert vids.metrics.packets_processed > 0
        assert vids.metrics.calls_quarantined <= max(1, len(poisoned))
        assert (vids.metrics.malformed_sip + vids.metrics.malformed_rtp
                + vids.metrics.malformed_rtcp) > 0
