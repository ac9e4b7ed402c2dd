"""Unit tests for the Analysis Engine's alert logic."""

import gc
import weakref

from repro.efsm import Event, FiringResult, ManualClock, Transition
from repro.vids import (
    AlertManager,
    AnalysisEngine,
    AttackType,
    CallStateFactBase,
    DEFAULT_CONFIG,
    VidsMetrics,
)
from repro.vids.patterns import CrossCallTrackers
from repro.vids.patterns import SPAM_ATTACK, SPAM_UNSOLICITED
from repro.vids.rtp_machine import ATTACK_AFTER_CLOSE, ATTACK_TOLL_FRAUD
from repro.vids.sip_machine import ATTACK_BYE


def make_engine():
    clock = ManualClock()
    alerts = AlertManager()
    trackers = CrossCallTrackers(DEFAULT_CONFIG, clock.now,
                                 engine=lambda: engine)
    engine = AnalysisEngine(alerts, clock.now, trackers.first_stray)
    factbase = CallStateFactBase(DEFAULT_CONFIG, clock.now, clock.schedule,
                                 VidsMetrics())
    record = factbase.get_or_create("eng@test")
    return engine, alerts, record, clock


def attack_result(record, machine, state, event_args=None,
                  from_state="Prev"):
    transition = Transition(source=from_state, event_name="X",
                            target=state, attack=True)
    return FiringResult(
        machine=machine,
        event=Event("X", event_args or {"src_ip": "6.6.6.6",
                                        "dst_ip": "10.2.0.11"}),
        transition=transition,
        from_state=from_state,
        to_state=state,
    )


def deviation_result(record, machine="sip", state="S", event_name="E"):
    return FiringResult(machine=machine, event=Event(event_name),
                        transition=None, from_state=state, to_state=state)


class TestAttackAlerts:
    def test_known_state_maps_to_type(self):
        engine, alerts, record, clock = make_engine()
        engine.handle_result(record, attack_result(record, "sip", ATTACK_BYE))
        assert alerts.count(AttackType.BYE_DOS) == 1
        alert = alerts.alerts[0]
        assert alert.call_id == "eng@test"
        assert alert.source == "6.6.6.6"
        assert alert.machine == "sip"

    def test_self_loop_in_attack_state_does_not_realert(self):
        engine, alerts, record, clock = make_engine()
        engine.handle_result(record, attack_result(record, "sip", ATTACK_BYE))
        looping = attack_result(record, "sip", ATTACK_BYE,
                                from_state=ATTACK_BYE)
        engine.handle_result(record, looping)
        assert alerts.count() == 1

    def test_after_close_attributed_to_toll_fraud_when_src_is_bye_sender(self):
        # The RTP machine's guard attributes; the engine types its state.
        engine, alerts, record, clock = make_engine()
        engine.handle_result(record, attack_result(record, "rtp",
                                                   ATTACK_TOLL_FRAUD))
        assert alerts.count() == alerts.count(AttackType.TOLL_FRAUD) == 1
        assert alerts.alerts[0].detail["scenario"] == "S11"

    def test_after_close_attributed_to_bye_dos_otherwise(self):
        engine, alerts, record, clock = make_engine()
        engine.handle_result(record, attack_result(record, "rtp",
                                                   ATTACK_AFTER_CLOSE))
        assert alerts.count() == alerts.count(AttackType.BYE_DOS) == 1

    def test_unmapped_attack_state_degrades_to_deviation_alert(self):
        engine, alerts, record, clock = make_engine()
        engine.handle_result(record,
                             attack_result(record, "sip", "ATTACK_Novel"))
        assert alerts.count(AttackType.SPEC_DEVIATION) == 1


class TestDeviationAlerts:
    def test_deviation_alerted_once_per_key(self):
        engine, alerts, record, clock = make_engine()
        for _ in range(5):
            engine.handle_result(record, deviation_result(record))
        assert alerts.count(AttackType.SPEC_DEVIATION) == 1

    def test_deviation_storm_alerts_once_and_pins_no_event(self):
        """1 000 identical deviating events: one alert, and neither the
        engine nor the call's machines keep any of the delivered events."""

        class Args(dict):
            """Weakly referenceable argument vector."""

        engine, alerts, record, clock = make_engine()
        system = record.system
        system.on_result = lambda result: engine.handle_result(record, result)
        refs = []
        for _ in range(1000):
            args = Args(src_ip="6.6.6.6", dst_ip="10.2.0.11")
            refs.append(weakref.ref(args))
            system.inject("sip", Event("ACK", args))    # ACK before INVITE
        del args
        assert alerts.count() == alerts.count(AttackType.SPEC_DEVIATION) == 1
        assert len(record.deviation_keys) == 1
        gc.collect()
        assert not any(ref() is not None for ref in refs)

    def test_different_keys_alert_separately(self):
        engine, alerts, record, clock = make_engine()
        engine.handle_result(record, deviation_result(record, state="A"))
        engine.handle_result(record, deviation_result(record, state="B"))
        assert alerts.count(AttackType.SPEC_DEVIATION) == 2

    def test_normal_firings_produce_nothing(self):
        engine, alerts, record, clock = make_engine()
        transition = Transition(source="A", event_name="E", target="B")
        engine.handle_result(record, FiringResult(
            machine="sip", event=Event("E"), transition=transition,
            from_state="A", to_state="B"))
        assert alerts.count() == 0


class TestOutOfBandNotes:
    def test_stray_request_deduplicated(self):
        engine, alerts, record, clock = make_engine()
        for _ in range(3):
            engine.note_stray_request("BYE", "ghost@x", "6.6.6.6",
                                      "10.2.0.11")
        assert alerts.count(AttackType.SPEC_DEVIATION) == 1

    def test_flood_and_reflection_notes(self):
        engine, alerts, record, clock = make_engine()
        event = Event("INVITE", {"src_ip": "6.6.6.6", "dst_ip": "10.2.0.1",
                                 "call_id": "x@y"})
        engine.note_flood("bob@b.com", event)
        engine.note_reflection("198.51.100.7", event)
        assert alerts.count(AttackType.INVITE_FLOOD) == 1
        assert alerts.count(AttackType.DRDOS_REFLECTION) == 1
        reflection = alerts.by_type(AttackType.DRDOS_REFLECTION)[0]
        assert reflection.source == "198.51.100.7"

    def test_orphan_notes(self):
        engine, alerts, record, clock = make_engine()
        event = Event("RTP_PACKET", {"src_ip": "6.6.6.6"})
        for state in (SPAM_UNSOLICITED, SPAM_ATTACK):
            engine.note_orphan_media(("10.2.0.11", 20_002), event, state)
        assert alerts.count(AttackType.MEDIA_SPAM) == 1
        assert alerts.count(AttackType.UNSOLICITED_MEDIA) == 1
        assert [a.state for a in alerts.alerts] == [SPAM_UNSOLICITED,
                                                    SPAM_ATTACK]


class TestAlertManager:
    def test_counters_and_queries(self):
        manager = AlertManager()
        from repro.vids import Alert
        manager.raise_alert(Alert(1.0, AttackType.BYE_DOS))
        manager.raise_alert(Alert(2.0, AttackType.BYE_DOS))
        manager.raise_alert(Alert(3.0, AttackType.MEDIA_SPAM))
        assert manager.count() == 3
        assert manager.count(AttackType.BYE_DOS) == 2
        assert manager.first_time(AttackType.BYE_DOS) == 1.0
        assert manager.first_time(AttackType.INVITE_FLOOD) is None
        assert len(manager.by_type(AttackType.MEDIA_SPAM)) == 1
        manager.clear()
        assert manager.count() == 0
