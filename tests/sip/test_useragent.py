"""User agent tests: full signaling flows over the mini network."""


from repro.netsim import Endpoint
from repro.sip import SipRequest, SipResponse, new_branch


class CalleeBehaviour:
    """Configurable callee application attached to a UA: it rings
    ``ring_after`` seconds into the call (never, if None), then answers
    ``answer_after`` seconds later — or rejects with ``reject_with``."""

    def __init__(self, voip, ring_after=0.05, answer_after=1.0,
                 reject_with=None):
        self.voip = voip
        self.ring_after = ring_after
        self.answer_after = answer_after
        self.reject_with = reject_with
        self.incoming = []
        self.established = []
        self.terminated = []
        voip.ua_b.on_incoming_call = self._on_incoming

    def _on_incoming(self, call):
        self.incoming.append(call)
        call.on_established = lambda c: self.established.append(c)
        call.on_terminated = lambda c, reason: self.terminated.append(reason)
        sim = self.voip.sim
        if self.ring_after is not None:
            sim.schedule(self.ring_after, call.ring)

        def answer():
            if self.reject_with is not None:
                call.reject(self.reject_with)
            else:
                call.accept(self.voip.sdp_for(self.voip.ua_b))

        sim.schedule((self.ring_after or 0.0) + self.answer_after, answer)


def place_call(voip):
    return voip.ua_a.invite("sip:bob@b.example.com",
                            voip.sdp_for(voip.ua_a))


def test_register_sets_location_binding(mini_voip):
    mini_voip.register_both()
    contact = mini_voip.proxy_a.location.lookup("alice@a.example.com",
                                                mini_voip.sim.now)
    assert contact is not None and contact.host == "10.1.0.11"


def test_full_call_setup_and_teardown(mini_voip):
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    call = place_call(mini_voip)
    ring_events = []
    call.on_ringing = lambda c: ring_events.append(mini_voip.sim.now)
    mini_voip.sim.schedule(10.0, call.hangup)
    mini_voip.net.run(until=30.0)

    assert call.state == "terminated"
    assert call.end_reason == "local-bye"
    assert ring_events and call.setup_delay is not None
    assert 0.1 < call.setup_delay < 0.5
    assert callee.established and callee.terminated == ["remote-bye"]
    # SDP answers propagated both ways.
    assert call.remote_sdp.connection_address == "10.2.0.11"
    callee_call = callee.incoming[0]
    assert callee_call.remote_sdp.connection_address == "10.1.0.11"


def test_callee_hangup_terminates_caller(mini_voip):
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    call = place_call(mini_voip)

    def hang_from_b():
        callee.incoming[0].hangup()

    mini_voip.sim.schedule(8.0, hang_from_b)
    mini_voip.net.run(until=30.0)
    assert call.state == "terminated"
    assert call.end_reason == "remote-bye"


def test_busy_rejection_fails_call(mini_voip):
    CalleeBehaviour(mini_voip, ring_after=None, answer_after=0.05,
                    reject_with=486)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=30.0)
    assert call.state == "failed"
    assert call.end_reason == "rejected-486"


def test_unknown_callee_fails_with_404(mini_voip):
    mini_voip.register_both()
    call = mini_voip.ua_a.invite("sip:nobody@b.example.com",
                                 mini_voip.sdp_for(mini_voip.ua_a))
    mini_voip.net.run(until=30.0)
    assert call.state == "failed"
    assert call.end_reason == "rejected-404"


def test_cancel_before_answer(mini_voip):
    callee = CalleeBehaviour(mini_voip, answer_after=20.0)  # slow to answer
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.sim.schedule(2.0, call.hangup)   # CANCEL while ringing
    mini_voip.net.run(until=40.0)
    assert call.state == "cancelled"
    assert callee.terminated == ["remote-cancel"]


def test_cancel_crossing_the_200_leaves_the_call_up(mini_voip):
    """A CANCEL that reaches the callee after its 200 and before the ACK
    has no effect (RFC 3261 §9.2): both sides end established and no 487
    goes on the wire."""
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    call = place_call(mini_voip)
    responses = []
    transport = mini_voip.ua_b.transport
    send = transport.send_message

    def recording(message, destination):
        if isinstance(message, SipResponse):
            responses.append((message.status, message.cseq.method))
            if responses == [(180, "INVITE"), (200, "INVITE")]:
                mini_voip.sim.schedule(0.001, call.hangup)   # CANCEL
        send(message, destination)

    transport.send_message = recording
    mini_voip.net.run(until=10.0)
    assert responses == [(180, "INVITE"), (200, "INVITE"), (200, "CANCEL")]
    assert call.state == "established"
    assert callee.incoming[0].state == "established"
    assert callee.terminated == []

def test_unattended_callee_responds_480(mini_voip):
    mini_voip.register_both()   # ua_b has no application attached
    call = place_call(mini_voip)
    mini_voip.net.run(until=30.0)
    assert call.state == "failed"
    assert call.end_reason == "rejected-480"


def test_invite_timeout_without_network(mini_voip):
    # Cloud drops everything: INVITE never gets through.
    mini_voip.cloud.loss_rate = 1.0
    mini_voip.register_both()   # registration is intra-domain, unaffected
    call = place_call(mini_voip)
    mini_voip.net.run(until=60.0)
    assert call.state == "failed"
    assert call.end_reason == "invite-timeout"


def test_call_survives_5_percent_loss(lossy_voip):
    voip = lossy_voip
    CalleeBehaviour(voip)
    voip.register_both()
    outcomes = []
    for index in range(8):
        call = place_call(voip)
        call.on_terminated = lambda c, r: outcomes.append(r)
        voip.sim.schedule(8.0, call.hangup)
        voip.net.run(until=voip.sim.now + 60.0)
    terminated = [r for r in outcomes if r in ("local-bye", "remote-bye")]
    assert len(terminated) >= 7  # retransmissions recover from loss


def test_reinvite_updates_session(mini_voip):
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=5.0)
    assert call.state == "established"

    # Caller re-INVITEs with a new media port.
    new_sdp = mini_voip.sdp_for(mini_voip.ua_a, port=22_000)
    reinvite = call.dialog.create_request(
        "INVITE", new_branch(mini_voip.sim), body=new_sdp.serialize(),
        content_type="application/sdp")
    responses = []
    mini_voip.ua_a.manager.send_request(
        reinvite, call.dialog.remote_endpoint, responses.append)
    mini_voip.net.run(until=10.0)
    assert responses and responses[-1].status == 200
    callee_call = callee.incoming[0]
    assert callee_call.remote_sdp.audio.port == 22_000


def test_concurrent_calls_are_independent(mini_voip):
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    first = place_call(mini_voip)
    second = place_call(mini_voip)
    mini_voip.sim.schedule(6.0, first.hangup)
    mini_voip.net.run(until=12.0)
    assert first.state == "terminated"
    assert second.state == "established"
    assert len(callee.incoming) == 2


# -- replies the user agent makes outside the call leg ------------------------

def _statuses_of(voip, request):
    """Send ``request`` from ua_a straight to ua_b; collect the statuses."""
    statuses = []
    ua_b = voip.ua_b
    voip.ua_a.manager.send_request(
        request, Endpoint(ua_b.host.ip, ua_b.transport.port),
        lambda response: statuses.append(response.status))
    voip.net.run(until=voip.sim.now + 5.0)
    return statuses


def _request(voip, method, call_id, from_, to, cseq=7):
    """A request from ua_a's host with the dialog identifiers given."""
    request = SipRequest(method, voip.ua_b.contact_uri)
    voip.ua_a._stamp_request(request)
    request.set("From", from_)
    request.set("To", to)
    request.set("Call-ID", call_id)
    request.set("CSeq", f"{cseq} {method}")
    return request


def _stray_request(voip, method):
    return _request(voip, method, "stray@10.1.0.11",
                    "<sip:alice@a.example.com>;tag=stray-from",
                    "<sip:bob@b.example.com>;tag=stray-to")


def test_in_dialog_request_matching_no_dialog_gets_481(mini_voip):
    mini_voip.register_both()
    assert _statuses_of(mini_voip, _stray_request(mini_voip, "BYE")) == [481]
    assert _statuses_of(mini_voip,
                        _stray_request(mini_voip, "INVITE")) == [481]


def test_bye_whose_cseq_does_not_increase_gets_500(mini_voip):
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=5.0)
    bye = call.dialog.create_request("BYE", new_branch(mini_voip.sim))
    bye.set("CSeq", f"{call.invite_request.cseq.number} BYE")
    assert _statuses_of(mini_voip, bye) == [500]
    assert callee.incoming[0].state == "established"
    assert callee.terminated == []


def test_second_invite_reusing_a_live_call_id_gets_482(mini_voip):
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=5.0)
    invite = _request(mini_voip, "INVITE", call.call_id,
                      "<sip:alice@a.example.com>;tag=second",
                      "<sip:bob@b.example.com>", cseq=1)
    assert _statuses_of(mini_voip, invite) == [482]
    assert len(callee.incoming) == 1
    assert callee.incoming[0].state == "established"


def test_2xx_retransmitted_after_the_transaction_ended_is_re_acked(mini_voip):
    """The caller's first ACK is lost: the callee retransmits its 200 on
    Timer G, the caller's INVITE client transaction is gone, and the
    caller ACKs the stray 200 again."""
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    acks = []
    transport = mini_voip.ua_a.transport
    send = transport.send_message

    def dropping_first_ack(message, destination):
        if isinstance(message, SipRequest) and message.method == "ACK":
            acks.append(mini_voip.sim.now)
            if len(acks) == 1:
                return
        send(message, destination)

    transport.send_message = dropping_first_ack
    call = place_call(mini_voip)
    mini_voip.net.run(until=10.0)
    assert len(acks) == 2 and acks[1] > acks[0]
    assert call.state == "established"
    assert callee.incoming[0].state == "established"
    assert len(callee.established) == 1


# -- the rest of the call leg's transitions -----------------------------------

def test_answer_without_ringing(mini_voip):
    callee = CalleeBehaviour(mini_voip, ring_after=None)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=10.0)
    assert call.state == "established" and call.setup_delay is None
    assert callee.incoming[0].state == "established"


def test_cancel_before_the_callee_rings(mini_voip):
    callee = CalleeBehaviour(mini_voip, ring_after=None, answer_after=20.0)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.sim.schedule(1.0, call.hangup)   # CANCEL before any 180
    mini_voip.net.run(until=40.0)
    assert call.state == "cancelled" and call.ringing_at is None
    assert callee.incoming[0].state == "cancelled"
    assert callee.terminated == ["remote-cancel"]


def test_reject_after_ringing(mini_voip):
    callee = CalleeBehaviour(mini_voip, reject_with=603)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=30.0)
    assert call.state == "failed" and call.end_reason == "rejected-603"
    assert call.setup_delay is not None
    assert callee.terminated == ["rejected-603"]


def test_ringing_call_outlives_timer_b(mini_voip):
    """The 180 stops Timer B: a callee that rings for longer than
    64·T1 is still answered, and both legs are established."""
    callee = CalleeBehaviour(mini_voip, answer_after=100.0)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=60.0)
    assert call.state == "ringing" and call.ringing_at is not None
    assert callee.incoming[0].state == "ringing"
    mini_voip.net.run(until=110.0)
    assert call.state == "established"
    assert callee.incoming[0].state == "established"


def test_bye_before_the_answer_ends_the_callee_leg(mini_voip):
    """A BYE in the early dialog gets 200 and ends the callee's leg,
    before the 180 and after it."""
    callee = CalleeBehaviour(mini_voip, ring_after=1.0, answer_after=20.0)
    mini_voip.register_both()
    for wait, state in ((0.5, "incoming"), (1.5, "ringing")):
        place_call(mini_voip)
        mini_voip.net.run(until=mini_voip.sim.now + wait)
        leg = callee.incoming[-1]
        assert leg.state == state
        bye = _request(mini_voip, "BYE", leg.call_id,
                       str(leg.dialog.remote_addr),
                       str(leg.dialog.local_addr), cseq=2)
        assert _statuses_of(mini_voip, bye) == [200]
        assert leg.state == "terminated"
    assert callee.terminated == ["remote-bye", "remote-bye"]


def test_unanswered_bye_ends_the_call_on_its_timeout(mini_voip):
    callee = CalleeBehaviour(mini_voip)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=5.0)
    mini_voip.cloud.loss_rate = 1.0
    call.hangup()
    mini_voip.net.run(until=60.0)
    assert call.state == "terminated" and call.end_reason == "bye-timeout"
    assert callee.incoming[0].state == "established"
