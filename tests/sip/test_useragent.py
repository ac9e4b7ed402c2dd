"""User agent tests: full signaling flows over the mini network."""


from repro.sip import CallState, SipResponse


class CalleeBehaviour:
    """Configurable callee application attached to a UA."""

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
        if self.reject_with is not None:
            sim.schedule(self.ring_after, lambda: call.reject(self.reject_with))
            return
        sim.schedule(self.ring_after, call.ring)
        sim.schedule(self.ring_after + self.answer_after,
                     lambda: call.accept(self.voip.sdp_for(self.voip.ua_b)))


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

    assert call.state is CallState.TERMINATED
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
    assert call.state is CallState.TERMINATED
    assert call.end_reason == "remote-bye"


def test_busy_rejection_fails_call(mini_voip):
    CalleeBehaviour(mini_voip, reject_with=486)
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.net.run(until=30.0)
    assert call.state is CallState.FAILED
    assert call.end_reason == "rejected-486"


def test_unknown_callee_fails_with_404(mini_voip):
    mini_voip.register_both()
    call = mini_voip.ua_a.invite("sip:nobody@b.example.com",
                                 mini_voip.sdp_for(mini_voip.ua_a))
    mini_voip.net.run(until=30.0)
    assert call.state is CallState.FAILED
    assert call.end_reason == "rejected-404"


def test_cancel_before_answer(mini_voip):
    callee = CalleeBehaviour(mini_voip, answer_after=20.0)  # slow to answer
    mini_voip.register_both()
    call = place_call(mini_voip)
    mini_voip.sim.schedule(2.0, call.hangup)   # CANCEL while ringing
    mini_voip.net.run(until=40.0)
    assert call.state is CallState.CANCELLED
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
    assert call.state is CallState.ESTABLISHED
    assert callee.incoming[0].state is CallState.ESTABLISHED
    assert callee.terminated == []

def test_unattended_callee_responds_480(mini_voip):
    mini_voip.register_both()   # ua_b has no application attached
    call = place_call(mini_voip)
    mini_voip.net.run(until=30.0)
    assert call.state is CallState.FAILED
    assert call.end_reason == "rejected-480"


def test_invite_timeout_without_network(mini_voip):
    # Cloud drops everything: INVITE never gets through.
    mini_voip.cloud.loss_rate = 1.0
    mini_voip.register_both()   # registration is intra-domain, unaffected
    call = place_call(mini_voip)
    mini_voip.net.run(until=60.0)
    assert call.state is CallState.FAILED
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
    assert call.state is CallState.ESTABLISHED

    # Caller re-INVITEs with a new media port.
    new_sdp = mini_voip.sdp_for(mini_voip.ua_a, port=22_000)
    reinvite = call.dialog.create_request(
        "INVITE", body=new_sdp.serialize(),
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
    assert first.state is CallState.TERMINATED
    assert second.state is CallState.ESTABLISHED
    assert len(callee.incoming) == 2
