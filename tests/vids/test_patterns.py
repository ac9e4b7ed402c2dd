"""Unit tests for the standalone Figure-4 / Figure-6 pattern machines."""

from repro.efsm import EfsmInstance, Event, ManualClock
from repro.vids.patterns import (
    FLOOD_ATTACK,
    FLOOD_COUNTING,
    FLOOD_INIT,
    InviteFloodTracker,
    OrphanMediaTracker,
    SPAM_ATTACK,
    SPAM_UNSOLICITED,
    build_invite_flood_machine,
    build_media_spam_machine,
)


def invite(branch, src_ip="9.9.9.9", call_id=None):
    return Event("INVITE", {"branch": branch, "src_ip": src_ip,
                            "call_id": call_id or f"cid-{branch}"})


def rtp(ssrc=1, seq=0, ts=0, src_ip="9.9.9.9"):
    return Event("RTP_PACKET", {"ssrc": ssrc, "seq": seq, "ts": ts,
                                "src_ip": src_ip})


class TestInviteFloodMachine:
    def make(self, threshold=5, window=1.0):
        clock = ManualClock()
        machine = build_invite_flood_machine(threshold, window)
        instance = EfsmInstance(machine, clock_now=clock.now,
                                timer_scheduler=clock.schedule)
        return instance, clock

    def test_below_threshold_is_normal(self):
        instance, clock = self.make(threshold=5)
        for index in range(5):
            result = instance.deliver(invite(f"b{index}"))
            assert not result.attack
        assert instance.state == FLOOD_COUNTING
        assert instance.variables["pck_counter"] == 5

    def test_exceeding_threshold_is_attack(self):
        instance, clock = self.make(threshold=5)
        for index in range(5):
            instance.deliver(invite(f"b{index}"))
        result = instance.deliver(invite("b5"))
        assert result.attack
        assert instance.state == FLOOD_ATTACK

    def test_retransmissions_not_counted(self):
        instance, clock = self.make(threshold=3)
        for _ in range(10):
            instance.deliver(invite("same-branch"))
        assert instance.variables["pck_counter"] == 1
        assert instance.state == FLOOD_COUNTING

    def test_window_expiry_resets_counter(self):
        instance, clock = self.make(threshold=5, window=1.0)
        for index in range(4):
            instance.deliver(invite(f"b{index}"))
        clock.advance(1.5)     # T1 fires
        assert instance.state == FLOOD_INIT
        assert instance.variables["pck_counter"] == 0
        # A fresh slow trickle never alarms.
        for index in range(4):
            instance.deliver(invite(f"c{index}"))
        assert instance.state == FLOOD_COUNTING

    def test_rearms_after_attack_window(self):
        instance, clock = self.make(threshold=2, window=1.0)
        for index in range(4):
            instance.deliver(invite(f"b{index}"))
        assert instance.state == FLOOD_ATTACK
        clock.advance(1.5)
        assert instance.state == FLOOD_INIT


class TestInviteFloodTracker:
    def test_per_target_isolation(self):
        clock = ManualClock()
        attacks = []
        tracker = InviteFloodTracker(
            build_invite_flood_machine(3, 1.0), clock_now=clock.now,
            on_attack=lambda target, event: attacks.append(target))
        # Two INVITEs each to two targets: below threshold for both.
        for index in range(3):
            tracker.observe_invite("bob@b.com", invite(f"x{index}"))
            tracker.observe_invite("carol@b.com", invite(f"y{index}"))
        assert attacks == []
        assert tracker.counter("bob@b.com") == 3
        tracker.observe_invite("bob@b.com", invite("x9"))
        assert attacks == ["bob@b.com"]
        assert tracker.counter("carol@b.com") == 3

    def test_attack_reported_once_per_episode(self):
        clock = ManualClock()
        attacks = []
        tracker = InviteFloodTracker(
            build_invite_flood_machine(2, 1.0), clock_now=clock.now,
            on_attack=lambda target, event: attacks.append(clock.now()))
        for index in range(10):
            tracker.observe_invite("bob@b.com", invite(f"b{index}"))
        assert len(attacks) == 1


    def test_window_expiry_forgets_the_target(self):
        """Back in INIT an instance equals a fresh one, so the table drops
        it: it is sized by targets inside a window, not by targets ever
        seen (callee AORs and *claimed* sources are attacker-chosen)."""
        clock = ManualClock()
        tracker = InviteFloodTracker(
            build_invite_flood_machine(2, 1.0), clock_now=clock.now)
        tracker.observe_invite("bob@b.com", invite("a0"))
        clock.advance(0.5)
        for index in range(4):      # carol is flooded, and flagged
            tracker.observe_invite("carol@b.com", invite(f"c{index}"))
        assert set(tracker.machines) == {"bob@b.com", "carol@b.com"}
        clock.advance(0.6)          # bob's T1
        assert set(tracker.machines) == {"carol@b.com"}
        assert tracker.counter("bob@b.com") == 0
        clock.advance(0.5)          # carol's T1 re-arms from the attack state
        assert tracker.machines == {}
        # The next INVITE opens a fresh window.
        assert not tracker.observe_invite("bob@b.com", invite("a1"))
        assert tracker.counter("bob@b.com") == 1

    def test_version_moves_with_every_change(self):
        clock = ManualClock()
        tracker = InviteFloodTracker(
            build_invite_flood_machine(5, 1.0), clock_now=clock.now)
        seen = [tracker.version]

        def moved():
            seen.append(tracker.version)
            return seen[-1] > seen[-2]

        tracker.observe_invite("bob@b.com", invite("a0"))
        assert moved()
        tracker.observe_invite("bob@b.com", invite("a1"))
        assert moved()
        # A retransmission changes nothing but is a delivery like any
        # other, so the version moves: a stale snapshot is never reused,
        # a fresh one is merely retaken.
        before = tracker.snapshot()["machines"]
        tracker.observe_invite("bob@b.com", invite("a1"))
        assert tracker.snapshot()["machines"] == before
        assert tracker.counter("bob@b.com") == 2
        assert moved()
        clock.advance(1.5)          # expiry removes the instance
        assert moved() and tracker.machines == {}


class TestMediaSpamMachine:
    def make(self, seq_gap=50, ts_gap=1000):
        return EfsmInstance(build_media_spam_machine(seq_gap, ts_gap, 100))

    def test_steady_stream_self_loops(self):
        instance = self.make()
        for index in range(20):
            result = instance.deliver(rtp(seq=index, ts=index * 160))
            assert not result.attack
        assert instance.variables["packets"] == 20
        assert instance.variables["sequence_number"] == 19

    def test_seq_gap_detected(self):
        instance = self.make(seq_gap=50)
        instance.deliver(rtp(seq=10, ts=100))
        result = instance.deliver(rtp(seq=100, ts=200))
        assert result.attack
        assert instance.state == SPAM_ATTACK

    def test_ts_gap_detected(self):
        instance = self.make(ts_gap=1000)
        instance.deliver(rtp(seq=1, ts=0))
        result = instance.deliver(rtp(seq=2, ts=5000))
        assert result.attack

    def test_ssrc_change_detected(self):
        instance = self.make()
        instance.deliver(rtp(ssrc=1, seq=1, ts=0))
        result = instance.deliver(rtp(ssrc=2, seq=2, ts=160))
        assert result.attack

    def test_seq_wraparound_not_a_jump(self):
        instance = self.make(seq_gap=50)
        instance.deliver(rtp(seq=65_535, ts=0))
        result = instance.deliver(rtp(seq=0, ts=160))
        assert not result.attack


class TestOrphanMediaTracker:
    def make(self, threshold=5):
        clock = ManualClock()
        spams = []
        unsolicited = []
        tracker = OrphanMediaTracker(
            build_media_spam_machine(50, 1000, threshold), clock.now,
            on_attack=lambda dst, event, state: (
                unsolicited if state == SPAM_UNSOLICITED else spams
            ).append(dst))
        return tracker, spams, unsolicited

    def test_unsolicited_alert_after_threshold(self):
        """Flagged once, by exactly the packet past the threshold (the
        first one under 0); spam still follows."""
        destination = ("10.2.0.11", 20_002)
        for threshold in range(6):
            tracker, spams, unsolicited = self.make(threshold=threshold)
            for index in range(threshold + 3):
                tracker.observe(destination, rtp(seq=index, ts=index * 160))
                assert unsolicited == [destination] * (index >= threshold)
            tracker.observe(destination, rtp(seq=500, ts=0))
            assert spams == [destination] and len(unsolicited) == 1

    def test_spam_rules_apply_to_orphans(self):
        tracker, spams, unsolicited = self.make()
        destination = ("10.2.0.11", 20_002)
        tracker.observe(destination, rtp(seq=1, ts=0))
        tracker.observe(destination, rtp(seq=500, ts=160))
        assert spams == [destination]

    def test_one_definition_for_every_destination(self):
        tracker, _, _ = self.make()
        first = tracker.machine_for(("10.2.0.11", 20_002))
        second = tracker.machine_for(("10.2.0.12", 20_004))
        assert first is not second
        assert first.definition is second.definition
        assert first.name == "media_spam"
        assert tracker.machine_for(("10.2.0.11", 20_002)) is first

    def test_table_is_capped_by_forgetting_the_longest_idle(self, monkeypatch):
        from repro.vids.patterns import media_spam
        monkeypatch.setattr(media_spam, "_MAX_ORPHAN_DESTINATIONS", 3)
        tracker, spams, unsolicited = self.make(threshold=1)
        a, b, c, d = (("10.2.0.11", 20_000 + 2 * n) for n in range(4))
        for destination in (a, b, c):
            for index in range(3):
                tracker.observe(destination, rtp(seq=index, ts=index * 160))
        assert unsolicited == [a, b, c]
        tracker.observe(a, rtp(seq=3, ts=480))      # a is no longer idle
        before = tracker.version
        tracker.observe(d, rtp(seq=0, ts=0))        # past the cap: b goes
        assert list(tracker.machines) == [c, a, d]
        assert {destination for destination, machine
                in tracker.machines.items()
                if machine.state == SPAM_UNSOLICITED} == {a, c}
        assert tracker.version > before
        assert spams == []

    def test_forget_clears_state(self):
        tracker, spams, unsolicited = self.make(threshold=2)
        destination = ("10.2.0.11", 20_002)
        for index in range(4):
            tracker.observe(destination, rtp(seq=index, ts=index * 160))
        assert unsolicited
        tracker.forget(destination)
        assert destination not in tracker.machines
