"""Unit tests for the four RFC 3261 transaction state machines."""

import pytest

from repro.efsm import EfsmInstance, Severity, verify_machine
from repro.netsim import Endpoint, Simulator
from repro.sip import (
    SipRequest,
    SipResponse,
    TimerTable,
    TransactionManager,
)
from repro.sip.transaction import (
    InviteClientTransaction,
    InviteServerTransaction,
    NonInviteClientTransaction,
    NonInviteServerTransaction,
    transaction_machines,
)

TIMERS = TimerTable()  # default: T1=0.5, T2=4, T4=5
DEST = Endpoint("10.0.0.2", 5060)
SRC = Endpoint("10.0.0.1", 5060)


class FakeTransport:
    """Records every message the transaction layer sends."""

    def __init__(self):
        self.sim = Simulator()
        self.sent = []

    def send_message(self, message, destination):
        self.sent.append((self.sim.now, message, destination))

    def sent_methods(self):
        return [m.method for _, m, _ in self.sent
                if isinstance(m, SipRequest)]

    def sent_statuses(self):
        return [m.status for _, m, _ in self.sent
                if isinstance(m, SipResponse)]

    def gaps(self, status=None):
        """Intervals between successive sends (of ``status`` only)."""
        times = [t for t, m, _ in self.sent
                 if status is None or getattr(m, "status", None) == status]
        return [later - earlier for earlier, later in zip(times, times[1:])]


def make_invite(branch="z9hG4bKtest1"):
    request = SipRequest("INVITE", "sip:bob@b.com")
    request.set("Via", f"SIP/2.0/UDP 10.0.0.1:5060;branch={branch}")
    request.set("From", "<sip:alice@a.com>;tag=f1")
    request.set("To", "<sip:bob@b.com>")
    request.set("Call-ID", "c1@10.0.0.1")
    request.set("CSeq", "1 INVITE")
    request.set("Max-Forwards", "70")
    return request


def make_bye(branch="z9hG4bKbye1"):
    request = SipRequest("BYE", "sip:bob@10.0.0.2")
    request.set("Via", f"SIP/2.0/UDP 10.0.0.1:5060;branch={branch}")
    request.set("From", "<sip:alice@a.com>;tag=f1")
    request.set("To", "<sip:bob@b.com>;tag=t1")
    request.set("Call-ID", "c1@10.0.0.1")
    request.set("CSeq", "2 BYE")
    return request


class TestInviteClient:
    def test_retransmits_with_doubling_timer_a(self):
        transport = FakeTransport()
        txn = InviteClientTransaction(transport, make_invite(), DEST,
                                      on_response=lambda r: None,
                                      timers=TIMERS)
        txn.start()
        transport.sim.run(until=3.6)
        # Sent at t=0, then timer A at 0.5, 1.5, 3.5 -> 4 transmissions.
        times = [t for t, m, _ in transport.sent]
        assert times == pytest.approx([0.0, 0.5, 1.5, 3.5])

    def test_timer_b_gives_up(self):
        transport = FakeTransport()
        timeouts = []
        txn = InviteClientTransaction(transport, make_invite(), DEST,
                                      on_response=lambda r: None,
                                      on_timeout=lambda: timeouts.append(1),
                                      timers=TIMERS)
        txn.start()
        transport.sim.run(until=64 * TIMERS.t1 + 1)
        assert timeouts == [1]
        assert txn.state == "terminated"

    def test_provisional_stops_retransmission(self):
        transport = FakeTransport()
        responses = []
        invite = make_invite()
        txn = InviteClientTransaction(transport, invite, DEST,
                                      on_response=responses.append,
                                      timers=TIMERS)
        txn.start()
        transport.sim.run(until=0.1)
        txn.receive_response(invite.create_response(180, to_tag="t1"))
        transport.sim.run(until=10.0)
        assert len(transport.sent) == 1       # no more retransmits
        assert txn.state == "proceeding"
        assert [r.status for r in responses] == [180]

    def test_2xx_terminates_and_passes_up(self):
        transport = FakeTransport()
        responses = []
        invite = make_invite()
        txn = InviteClientTransaction(transport, invite, DEST,
                                      on_response=responses.append,
                                      timers=TIMERS)
        txn.start()
        txn.receive_response(invite.create_response(200, to_tag="t1"))
        assert txn.state == "terminated"
        assert [r.status for r in responses] == [200]
        # The TU sends the 2xx ACK, not the transaction.
        assert transport.sent_methods() == ["INVITE"]

    def test_failure_response_acked_and_absorbed(self):
        transport = FakeTransport()
        responses = []
        invite = make_invite()
        txn = InviteClientTransaction(transport, invite, DEST,
                                      on_response=responses.append,
                                      timers=TIMERS)
        txn.start()
        response = invite.create_response(486, to_tag="t1")
        txn.receive_response(response)
        assert txn.state == "completed"
        assert transport.sent_methods() == ["INVITE", "ACK"]
        ack = transport.sent[-1][1]
        assert ack.cseq.number == 1 and ack.cseq.method == "ACK"
        assert ack.branch == invite.branch   # same branch per RFC 3261
        # A retransmitted final response is re-ACKed but not re-delivered.
        txn.receive_response(response)
        assert transport.sent_methods() == ["INVITE", "ACK", "ACK"]
        assert [r.status for r in responses] == [486]

    def test_timer_d_terminates_completed(self):
        transport = FakeTransport()
        invite = make_invite()
        txn = InviteClientTransaction(transport, invite, DEST,
                                      on_response=lambda r: None,
                                      timers=TIMERS)
        txn.start()
        txn.receive_response(invite.create_response(486, to_tag="t1"))
        transport.sim.run(until=TIMERS.timer_d + 1)
        assert txn.state == "terminated"


    def test_provisionals_then_2xx_in_proceeding(self):
        transport = FakeTransport()
        responses = []
        invite = make_invite()
        txn = InviteClientTransaction(transport, invite, DEST,
                                      on_response=responses.append,
                                      timers=TIMERS)
        txn.start()
        for status in (100, 180, 200):
            txn.receive_response(invite.create_response(status, to_tag="t1"))
        assert [r.status for r in responses] == [100, 180, 200]
        assert txn.state == "terminated"
        transport.sim.run(until=TIMERS.timer_b + 1)
        assert transport.sent_methods() == ["INVITE"]

    def test_failure_in_proceeding_is_acked(self):
        transport = FakeTransport()
        invite = make_invite()
        txn = InviteClientTransaction(transport, invite, DEST,
                                      on_response=lambda r: None,
                                      timers=TIMERS)
        txn.start()
        txn.receive_response(invite.create_response(180, to_tag="t1"))
        txn.receive_response(invite.create_response(603, to_tag="t1"))
        assert txn.state == "completed"
        assert transport.sent_methods() == ["INVITE", "ACK"]

    def test_timer_b_gives_up_in_proceeding(self):
        transport = FakeTransport()
        timeouts = []
        invite = make_invite()
        txn = InviteClientTransaction(transport, invite, DEST,
                                      on_response=lambda r: None,
                                      on_timeout=lambda: timeouts.append(1),
                                      timers=TIMERS)
        txn.start()
        txn.receive_response(invite.create_response(180, to_tag="t1"))
        transport.sim.run(until=TIMERS.timer_b + 1)
        assert timeouts == [1] and txn.state == "terminated"


class TestNonInviteClient:
    def test_retransmits_capped_at_t2(self):
        transport = FakeTransport()
        txn = NonInviteClientTransaction(transport, make_bye(), DEST,
                                         on_response=lambda r: None,
                                         timers=TIMERS)
        txn.start()
        transport.sim.run(until=12.0)
        times = [t for t, m, _ in transport.sent]
        # 0, 0.5, 1.5, 3.5, 7.5 (interval capped at T2=4), 11.5
        assert times == pytest.approx([0.0, 0.5, 1.5, 3.5, 7.5, 11.5])

    def test_timer_f_gives_up(self):
        transport = FakeTransport()
        timeouts = []
        txn = NonInviteClientTransaction(transport, make_bye(), DEST,
                                         on_response=lambda r: None,
                                         on_timeout=lambda: timeouts.append(1),
                                         timers=TIMERS)
        txn.start()
        transport.sim.run(until=64 * TIMERS.t1 + 1)
        assert timeouts == [1]

    def test_final_response_completes_then_timer_k(self):
        transport = FakeTransport()
        responses = []
        bye = make_bye()
        txn = NonInviteClientTransaction(transport, bye, DEST,
                                         on_response=responses.append,
                                         timers=TIMERS)
        txn.start()
        response = bye.create_response(200)
        txn.receive_response(response)
        assert txn.state == "completed"
        # Retransmitted finals are swallowed.
        txn.receive_response(response)
        assert [r.status for r in responses] == [200]
        transport.sim.run(until=TIMERS.timer_k + 1)
        assert txn.state == "terminated"


    def test_proceeding_retransmits_at_t2(self):
        transport = FakeTransport()
        responses = []
        bye = make_bye()
        txn = NonInviteClientTransaction(transport, bye, DEST,
                                         on_response=responses.append,
                                         timers=TIMERS)
        txn.start()
        transport.sim.run(until=0.6)
        txn.receive_response(bye.create_response(100))
        txn.receive_response(bye.create_response(100))
        assert txn.state == "proceeding"
        transport.sim.run(until=10.0)
        # E was armed at 1 s in trying; from proceeding it restarts at T2.
        assert transport.gaps() == pytest.approx([0.5, 1.0, 4.0, 4.0])
        txn.receive_response(bye.create_response(200))
        assert txn.state == "completed"
        assert [r.status for r in responses] == [100, 100, 200]

    def test_timer_f_gives_up_in_proceeding(self):
        transport = FakeTransport()
        timeouts = []
        bye = make_bye()
        txn = NonInviteClientTransaction(transport, bye, DEST,
                                         on_response=lambda r: None,
                                         on_timeout=lambda: timeouts.append(1),
                                         timers=TIMERS)
        txn.start()
        txn.receive_response(bye.create_response(100))
        transport.sim.run(until=TIMERS.timer_f + 1)
        assert timeouts == [1] and txn.state == "terminated"


class TestInviteServer:
    def test_provisional_then_final_failure_retransmits_until_ack(self):
        transport = FakeTransport()
        invite = make_invite()
        txn = InviteServerTransaction(transport, invite, SRC, timers=TIMERS)
        txn.send_response(invite.create_response(180, to_tag="t1"))
        txn.send_response(invite.create_response(486, to_tag="t1"))
        transport.sim.run(until=2.0)
        statuses = transport.sent_statuses()
        assert statuses[0] == 180
        assert statuses.count(486) >= 2     # timer G retransmissions
        ack = SipRequest("ACK", "sip:bob@b.com")
        ack.set("Via", invite.get("Via"))
        ack.set("CSeq", "1 ACK")
        txn.receive_ack(ack)
        assert txn.state == "confirmed"
        count_after_ack = transport.sent_statuses().count(486)
        transport.sim.run(until=30.0)
        assert transport.sent_statuses().count(486) == count_after_ack
        assert txn.state == "terminated"  # timer I

    def test_2xx_retransmits_until_ack(self):
        transport = FakeTransport()
        invite = make_invite()
        acked = []
        txn = InviteServerTransaction(transport, invite, SRC, timers=TIMERS,
                                      on_ack=acked.append)
        txn.send_response(invite.create_response(200, to_tag="t1"))
        transport.sim.run(until=1.8)
        assert transport.sent_statuses().count(200) >= 2
        txn.receive_ack(SipRequest("ACK", "sip:bob@b.com"))
        assert acked and txn.state == "terminated"
        count = transport.sent_statuses().count(200)
        transport.sim.run(until=40.0)
        assert transport.sent_statuses().count(200) == count

    def test_2xx_gives_up_after_timer_h(self):
        transport = FakeTransport()
        invite = make_invite()
        failures = []
        txn = InviteServerTransaction(
            transport, invite, SRC, timers=TIMERS,
            on_transport_failure=lambda: failures.append(1))
        txn.send_response(invite.create_response(200, to_tag="t1"))
        transport.sim.run(until=64 * TIMERS.t1 + 1)
        assert failures == [1]
        assert txn.state == "terminated"

    def test_request_retransmission_replays_last_response(self):
        transport = FakeTransport()
        invite = make_invite()
        txn = InviteServerTransaction(transport, invite, SRC, timers=TIMERS)
        txn.send_response(invite.create_response(180, to_tag="t1"))
        txn.receive_retransmission(invite)
        assert transport.sent_statuses() == [180, 180]


    def test_timer_g_doubles_to_t2_after_failure(self):
        transport = FakeTransport()
        invite = make_invite()
        failures = []
        txn = InviteServerTransaction(
            transport, invite, SRC, timers=TIMERS,
            on_transport_failure=lambda: failures.append(1))
        txn.send_response(invite.create_response(486, to_tag="t1"))
        transport.sim.run(until=12.0)
        assert transport.gaps(486) == pytest.approx([0.5, 1, 2, 4, 4])
        txn.receive_retransmission(invite)      # replayed at once
        assert transport.sent_statuses().count(486) == 7
        transport.sim.run(until=TIMERS.timer_h + 1)
        assert failures == [1] and txn.state == "terminated"

    def test_2xx_retransmits_double_to_t2(self):
        transport = FakeTransport()
        invite = make_invite()
        txn = InviteServerTransaction(transport, invite, SRC, timers=TIMERS)
        ok = invite.create_response(200, to_tag="t1")
        txn.send_response(ok)
        transport.sim.run(until=12.0)
        assert transport.gaps(200) == pytest.approx([0.5, 1, 2, 4, 4])
        txn.receive_retransmission(invite)
        assert transport.sent_statuses().count(200) == 7
        # A 2xx the TU sends again restarts G at T1.
        txn.send_response(ok)
        transport.sim.run(until=12.6)
        assert transport.gaps(200)[-2:] == pytest.approx([0.0, 0.5])
        assert txn.state == "accepted"

    def test_ack_retransmissions_absorbed_in_confirmed(self):
        transport = FakeTransport()
        invite = make_invite()
        txn = InviteServerTransaction(transport, invite, SRC, timers=TIMERS)
        txn.send_response(invite.create_response(486, to_tag="t1"))
        ack = SipRequest("ACK", "sip:bob@b.com")
        txn.receive_ack(ack)
        txn.receive_ack(ack)
        assert txn.state == "confirmed"
        assert transport.sent_statuses() == [486]

    def test_cancel_crossing_the_200_sends_no_487(self):
        """A non-2xx after the 200 (a CANCEL that crossed it) is ignored:
        the 200 keeps its retransmissions (RFC 3261 §9.2, RFC 6026)."""
        transport = FakeTransport()
        invite = make_invite()
        txn = InviteServerTransaction(transport, invite, SRC, timers=TIMERS)
        for status in (180, 200, 487):
            txn.send_response(invite.create_response(status, to_tag="t1"))
        transport.sim.run(until=3.0)
        assert transport.sent_statuses() == [180, 200, 200, 200]
        assert txn.state == "accepted"


class TestNonInviteServer:
    def test_final_absorbs_retransmissions_then_timer_j(self):
        transport = FakeTransport()
        bye = make_bye()
        txn = NonInviteServerTransaction(transport, bye, SRC, timers=TIMERS)
        txn.send_response(bye.create_response(200))
        txn.receive_retransmission(bye)
        assert transport.sent_statuses() == [200, 200]
        transport.sim.run(until=TIMERS.timer_j + 1)
        assert txn.state == "terminated"


    def test_provisional_then_final(self):
        transport = FakeTransport()
        bye = make_bye()
        txn = NonInviteServerTransaction(transport, bye, SRC, timers=TIMERS)
        txn.receive_retransmission(bye)         # trying: nothing to replay
        txn.send_response(bye.create_response(100))
        txn.receive_retransmission(bye)
        txn.send_response(bye.create_response(100))
        assert txn.state == "proceeding"
        txn.send_response(bye.create_response(200))
        assert txn.state == "completed"
        assert transport.sent_statuses() == [100, 100, 100, 200]


class TestTransactionManager:
    def make_manager(self, transport):
        requests = []
        strays = []
        manager = TransactionManager(
            transport,
            on_request=lambda req, src, txn: requests.append((req, txn)),
            on_stray_response=lambda resp, src: strays.append(resp),
            timers=TIMERS,
        )
        return manager, requests, strays

    def test_response_routed_to_client_transaction(self):
        transport = FakeTransport()
        manager, _, strays = self.make_manager(transport)
        responses = []
        invite = make_invite()
        manager.send_request(invite, DEST, responses.append)
        manager.handle_response(invite.create_response(180, to_tag="t"), DEST)
        assert [r.status for r in responses] == [180]
        assert strays == []

    def test_unmatched_response_is_stray(self):
        transport = FakeTransport()
        manager, _, strays = self.make_manager(transport)
        orphan = make_invite("z9hG4bKother").create_response(200)
        manager.handle_response(orphan, DEST)
        assert strays == [orphan]

    def test_request_creates_server_transaction_once(self):
        transport = FakeTransport()
        manager, requests, _ = self.make_manager(transport)
        invite = make_invite()
        manager.handle_request(invite, SRC)
        assert len(requests) == 1
        _, txn = requests[0]
        txn.send_response(invite.create_response(180, to_tag="t1"))
        # Retransmission is absorbed, not re-delivered to the TU.
        manager.handle_request(invite, SRC)
        assert len(requests) == 1
        assert transport.sent_statuses() == [180, 180]

    def test_cancel_finds_invite_server_transaction(self):
        transport = FakeTransport()
        manager, requests, _ = self.make_manager(transport)
        invite = make_invite()
        manager.handle_request(invite, SRC)
        cancel = SipRequest("CANCEL", "sip:bob@b.com")
        cancel.set("Via", invite.get("Via"))
        cancel.set("Call-ID", invite.call_id)
        cancel.set("CSeq", "1 CANCEL")
        found = manager.find_invite_server_transaction(cancel)
        assert found is requests[0][1]

    def test_terminated_transactions_are_reaped(self):
        transport = FakeTransport()
        manager, _, _ = self.make_manager(transport)
        invite = make_invite()
        responses = []
        manager.send_request(invite, DEST, responses.append)
        assert len(manager.client_transactions) == 1
        manager.handle_response(invite.create_response(200, to_tag="t"), DEST)
        assert len(manager.client_transactions) == 0


TESTED = (TestInviteClient, TestNonInviteClient, TestInviteServer,
          TestNonInviteServer, TestTransactionManager)


@pytest.mark.parametrize("name", sorted(transaction_machines()))
def test_machine_passes_speclint(name):
    machine = transaction_machines()[name]
    findings = [d for d in verify_machine(machine)
                if d.severity >= Severity.WARNING]
    assert findings == []


def test_every_transition_is_taken(monkeypatch):
    """The transitions are data: the tests above fire every one."""
    fired = set()
    deliver = EfsmInstance.deliver

    def recording(instance, event):
        result = deliver(instance, event)
        fired.add(id(result.transition))
        return result

    monkeypatch.setattr(EfsmInstance, "deliver", recording)
    for cls in TESTED:
        for name in dir(cls):
            if name.startswith("test_"):
                getattr(cls(), name)()
    untaken = [f"{machine.name}: {transition.describe()}"
               for machine in transaction_machines().values()
               for transition in machine.transitions
               if id(transition) not in fired]
    assert untaken == []
