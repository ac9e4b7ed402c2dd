"""Observability threaded through a live Vids: the evidence-chain contract.

The ISSUE acceptance criterion: a seeded BYE-teardown attack must yield a
trace whose timeline shows classifier verdict → distributor routing → EFSM
firings (including δ channel messages) → alert, in sim-time order, scoped
to the victim call — and the metrics exposition must round-trip through the
Prometheus parser with the alert counted.
"""

import pytest

from repro.efsm import ManualClock
from repro.obs import Observability, parse_prometheus
from repro.vids import Vids
from tests.vids.test_ids import (
    ATTACKER,
    CALL_ID,
    CALLER,
    bye_bytes,
    dgram,
    establish_call,
    stream_media,
)


def traced_vids():
    obs = Observability()
    clock = ManualClock()
    vids = Vids(clock_now=clock.now, timer_scheduler=clock.schedule, obs=obs)
    return vids, clock, obs


def run_bye_attack():
    """Benign call setup + media, then a third-party BYE from the attacker."""
    vids, clock, obs = traced_vids()
    establish_call(vids, clock)
    stream_media(vids, clock, count=3)
    bye = dgram(bye_bytes(), ATTACKER, CALLER)
    bye.packet_id = 7       # the only numbered packet: the rest carry 0
    vids.process(bye, clock.now())
    return vids, obs


class TestEvidenceChain:
    def test_attack_alerted(self):
        vids, _obs = run_bye_attack()
        assert len(vids.alerts) == 1
        assert vids.alerts[0].call_id == CALL_ID

    def test_chain_kinds_present_for_victim_call(self):
        _vids, obs = run_bye_attack()
        kinds = {event.kind for event in obs.trace.for_call(CALL_ID)}
        assert {"call-created", "classify", "route", "fire", "delta",
                "alert"} <= kinds

    def test_chain_is_causally_ordered(self):
        """classify → route → fire → alert for the attacking BYE packet."""
        vids, obs = run_bye_attack()
        events = obs.trace.for_call(CALL_ID)
        attack_time = vids.alerts[0].time

        def seq_of(kind, **match):
            for event in events:
                if event.kind != kind or event.time != attack_time:
                    continue
                if all(event.data.get(k) == v for k, v in match.items()):
                    return event.seq
            raise AssertionError(f"no {kind} event matching {match}")

        classify = seq_of("classify", verdict="sip")
        route = seq_of("route", outcome="inject", event="BYE")
        fire = seq_of("fire", event="BYE", attack=True)
        alert = seq_of("alert", attack_type="bye-dos")
        assert classify < route < fire < alert

    def test_attack_packet_correlated_end_to_end(self):
        """The BYE's packet_id links its classify and route events."""
        vids, obs = run_bye_attack()
        attack_time = vids.alerts[0].time
        classify = [e for e in obs.trace.events(kind="classify",
                                                call_id=CALL_ID)
                    if e.time == attack_time]
        assert classify, "attacking BYE classify event missing"
        assert classify[-1].packet_id == 7
        routed = obs.trace.events(kind="route", packet_id=7)
        assert [e.data["outcome"] for e in routed] == ["inject"]

    def test_delta_channel_messages_traced(self):
        """Call setup crosses the SIP→RTP δ channel; the trace shows it."""
        _vids, obs = run_bye_attack()
        deltas = obs.trace.events(kind="delta", call_id=CALL_ID)
        names = [event.data["event"] for event in deltas]
        assert "delta_session_offer" in names
        assert "delta_session_answer" in names
        assert all(event.data["channel"] == "sip->rtp" for event in deltas)

    def test_timeline_renders_the_attack(self):
        _vids, obs = run_bye_attack()
        text = obs.timeline(call_id=CALL_ID)
        assert f"timeline for call {CALL_ID}" in text
        assert "classifier verdict: sip" in text
        assert "ATTACK" in text
        assert "ALERT bye-dos" in text
        assert "δ sip ! delta_session_offer" in text
        # The alert is the last line: evidence reads top-to-bottom.
        assert "ALERT bye-dos" in text.splitlines()[-1]


class TestMetricsIntegration:
    def test_vids_counters_exposed_live(self):
        vids, obs = run_bye_attack()
        registry = obs.registry
        assert registry.get("vids_packets_processed").value == \
            vids.metrics.packets_processed
        assert registry.get("vids_sip_messages").value == \
            vids.metrics.sip_messages
        assert registry.get("vids_active_calls").value == vids.active_calls
        alerts = registry.get("vids_alerts_total")
        assert alerts.labels(attack_type="bye-dos").value == 1.0

    def test_prometheus_round_trip(self):
        _vids, obs = run_bye_attack()
        samples = parse_prometheus(obs.registry.to_prometheus())
        by_name = {sample.name: sample for sample in samples
                   if not sample.labels}
        assert by_name["vids_packets_processed"].value > 0
        alert_samples = [s for s in samples if s.name == "vids_alerts_total"
                        and s.labels.get("attack_type") == "bye-dos"]
        assert len(alert_samples) == 1
        assert alert_samples[0].value == 1.0

    def test_profiler_stages_when_enabled(self):
        obs = Observability(profile=True)
        clock = ManualClock()
        vids = Vids(clock_now=clock.now, timer_scheduler=clock.schedule,
                    obs=obs)
        establish_call(vids, clock)
        stream_media(vids, clock, count=3)
        stages = obs.profiler.snapshot()
        assert set(stages) == {"classify", "distribute", "fire"}
        # "fire" is a sub-span of "distribute": every fire commit happened
        # inside a distribute commit, so counts cannot exceed it.
        assert stages["fire"]["count"] <= stages["distribute"]["count"]
        hist = obs.registry.get("vids_stage_seconds")
        assert hist.labels(stage="classify").count == \
            stages["classify"]["count"]


class TestLifecycleEvents:
    def test_call_deleted_traced_with_final_states(self):
        from repro.vids import DEFAULT_CONFIG
        from tests.vids.test_ids import CALLEE, response_bytes

        vids, clock, obs = traced_vids()
        establish_call(vids, clock)
        vids.process(dgram(bye_bytes(), CALLEE, CALLER), clock.now())
        vids.process(dgram(response_bytes(200, cseq="2 BYE"), CALLER, CALLEE),
                     clock.now())
        clock.advance(DEFAULT_CONFIG.bye_inflight_timer + 0.1)
        clock.advance(DEFAULT_CONFIG.closed_record_linger + 1)
        assert vids.active_calls == 0
        (deleted,) = obs.trace.events(kind="call-deleted", call_id=CALL_ID)
        assert deleted.data["states"]["sip"] == "Closed"


class TestTraceVariablesFastPath:
    """A fire event carries its envelope — machine, event, channel, the
    states it left and entered — and no variable snapshot."""

    @pytest.fixture(scope="class")
    def default_run(self):
        from repro.telephony import (ScenarioParams, TestbedParams,
                                     WorkloadParams, run_scenario)

        obs = Observability(trace_capacity=100_000)
        result = run_scenario(ScenarioParams(
            testbed=TestbedParams(seed=7, phones_per_network=2),
            workload=WorkloadParams(mean_interarrival=20.0,
                                    mean_duration=30.0, horizon=80.0),
            with_vids=True, drain_time=60.0, obs=obs))
        return result, obs

    def test_fire_events_carry_no_snapshots(self, default_run):
        result, obs = default_run
        fires = [e for e in obs.trace.events() if e.kind == "fire"]
        assert fires
        assert all("vars" not in e.data and "args" not in e.data
                   for e in fires)
        # The channel is part of the firing key specdiff reads.
        assert all("channel" in e.data for e in fires)
