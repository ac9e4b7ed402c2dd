"""SIP transaction layer (RFC 3261 §17) over unreliable (UDP) transport.

The four transaction machines — INVITE/non-INVITE x client/server — are
Definition-1 EFSMs, the formalism of the vids machines on the other side of
the wire: guards of :mod:`repro.efsm.guards` over the response status,
Timers A–K as ``start``/``cancel`` and the A/E/G back-offs as ``write``s.
The INVITE server has RFC 6026's ``accepted`` state, so 200 OK reliability
lives inside the transaction.  docs/STATE_MACHINES.md ("The simulator's
transaction machines") has their tables.

What a machine does to its environment is an output: a send on the
``wire`` channel — the *transport*, any object with ``sim`` (a
:class:`~repro.netsim.Simulator`) and ``send_message(message,
destination)`` — or a callback on the ``tu`` channel to the *transaction
user* (TU), given at construction time.  :class:`Runner` delivers each
event to its machine, then runs the outputs in order (the user agent's
call leg runs on it too); the machine's timers run on the simulator.
"""

from __future__ import annotations

from operator import mul
from typing import Any, Callable, Dict, Optional, Protocol, Tuple

from ..efsm.events import TIMER_CHANNEL, Event
from ..efsm.guards import Statement, cancel, helper, start, v, write, x
from ..efsm.machine import Efsm, EfsmInstance, Output
from ..netsim.address import Endpoint
from .constants import ACK, CANCEL, INVITE
from .errors import SipProtocolError
from .message import SipRequest, SipResponse
from .timers import DEFAULT_TIMERS, TimerTable

__all__ = [
    "Transport", "Runner", "Transaction", "ClientTransaction",
    "InviteClientTransaction",
    "NonInviteClientTransaction", "ServerTransaction",
    "InviteServerTransaction", "NonInviteServerTransaction",
    "TransactionManager", "transaction_machines",
]


class Transport(Protocol):
    """What transactions need from the layer below."""

    @property
    def sim(self): ...

    def send_message(self, message, destination: Endpoint) -> None: ...


# ---- the four machines (Definition 1, as data) ------------------------------

#: Output channels: sends to the transport, callbacks to the TU.
WIRE, TU = "wire", "tu"
PROCEEDING, TERMINATED = "proceeding", "terminated"

_STATUS = x("status")
PROVISIONAL = _STATUS < 200
SUCCESS = (_STATUS >= 200) & (_STATUS < 300)
FINAL = _STATUS >= 200
FAILURE = _STATUS >= 300


def _machine(name: str, initial: str, *states: str,
             timers: Tuple[str, ...]) -> Efsm:
    """A machine with ``terminated`` final and, as globals, the
    :class:`TimerTable` durations it reads."""
    machine = Efsm(name, initial)
    for state in states:
        machine.add_state(state)
    machine.add_state(TERMINATED, final=True)
    return machine.declare_global(**{
        timer: getattr(DEFAULT_TIMERS, timer) for timer in timers
    }).declare_channel(WIRE, TU)


def _arm(timer: str) -> Tuple[Statement, ...]:
    """Start a retransmission timer at T1."""
    return write("interval", v("t1")), start(timer, v("t1"))


def _backoff(timer: str, capped: bool = True) -> Tuple[Statement, ...]:
    """Double the interval (up to T2 when ``capped``) and restart."""
    doubled = helper(mul, v("interval"), 2)
    return (write("interval", helper(min, doubled, v("t2")) if capped
                  else doubled),
            start(timer, v("interval")))


def _invite_client() -> Efsm:
    """RFC 3261 §17.1.1 (Figure 5)."""
    m = _machine("invite-client", "init", "calling", PROCEEDING, "completed",
                 timers=("t1", "timer_b", "timer_d")).declare(interval=0.0)
    request, ack = Output(WIRE, "request"), Output(WIRE, ACK)
    response, timeout = Output(TU, "response"), Output(TU, "timeout")
    m.add_transition("init", "request", "calling",
                     action=(*_arm("A"), start("B", v("timer_b"))),
                     outputs=[request])
    m.add_transition("calling", "A", "calling", action=_backoff("A", False),
                     outputs=[request], channel=TIMER_CHANNEL)
    # Timer B runs only in calling: the first provisional stops it too.
    m.add_transition("calling", "response", PROCEEDING, PROVISIONAL,
                     (cancel("A"), cancel("B")), [response])
    m.add_transition(PROCEEDING, "response", PROCEEDING, PROVISIONAL,
                     outputs=[response])
    m.add_transition("calling", "B", TERMINATED, action=cancel("A"),
                     outputs=[timeout], channel=TIMER_CHANNEL)
    for state in ("calling", PROCEEDING):
        # The TU sends the 2xx ACK and absorbs 2xx retransmissions.
        m.add_transition(state, "response", TERMINATED, SUCCESS,
                         (cancel("A"), cancel("B")), [response])
        m.add_transition(state, "response", "completed", FAILURE,
                         (cancel("A"), cancel("B"), start("D", v("timer_d"))),
                         [ack, response])
    m.add_transition("completed", "response", "completed", FAILURE,
                     outputs=[ack])
    m.add_transition("completed", "D", TERMINATED, channel=TIMER_CHANNEL)
    return m


def _non_invite_client() -> Efsm:
    """RFC 3261 §17.1.2 (Figure 6)."""
    m = _machine("non-invite-client", "init", "trying", PROCEEDING,
                 "completed", timers=("t1", "t2", "timer_f", "timer_k")
                 ).declare(interval=0.0)
    request = Output(WIRE, "request")
    response, timeout = Output(TU, "response"), Output(TU, "timeout")
    m.add_transition("init", "request", "trying",
                     action=(*_arm("E"), start("F", v("timer_f"))),
                     outputs=[request])
    m.add_transition("trying", "E", "trying", action=_backoff("E"),
                     outputs=[request], channel=TIMER_CHANNEL)
    m.add_transition(PROCEEDING, "E", PROCEEDING, action=start("E", v("t2")),
                     outputs=[request], channel=TIMER_CHANNEL)
    for state in ("trying", PROCEEDING):
        m.add_transition(state, "response", PROCEEDING, PROVISIONAL,
                         outputs=[response])
        m.add_transition(state, "response", "completed", FINAL,
                         (cancel("E"), cancel("F"), start("K", v("timer_k"))),
                         [response])
        m.add_transition(state, "F", TERMINATED, action=cancel("E"),
                         outputs=[timeout], channel=TIMER_CHANNEL)
    m.add_transition("completed", "response", "completed", FINAL)
    m.add_transition("completed", "K", TERMINATED, channel=TIMER_CHANNEL)
    return m


def _invite_server() -> Efsm:
    """RFC 3261 §17.2.1 (Figure 7) with RFC 6026's ``accepted``: a 2xx is
    retransmitted on G until the ACK, and no non-2xx leaves ``accepted``
    (a CANCEL that crosses the 200 has no effect, RFC 3261 §9.2)."""
    m = _machine("invite-server", PROCEEDING, "accepted", "completed",
                 "confirmed", timers=("t1", "t2", "timer_h", "timer_i")
                 ).declare(interval=0.0)
    response, resend = Output(WIRE, "response"), Output(WIRE, "resend")
    arm = (*_arm("G"), start("H", v("timer_h")))
    m.add_transition(PROCEEDING, "response", PROCEEDING, PROVISIONAL,
                     outputs=[response])
    for state in (PROCEEDING, "accepted"):
        m.add_transition(state, "response", "accepted", SUCCESS, arm,
                         [response])
    m.add_transition(PROCEEDING, "response", "completed", FAILURE, arm,
                     [response])
    for state in (PROCEEDING, "accepted", "completed"):
        m.add_transition(state, "request", state, outputs=[resend])
    for state in ("accepted", "completed"):
        m.add_transition(state, "G", state, action=_backoff("G"),
                         outputs=[resend], channel=TIMER_CHANNEL)
        m.add_transition(state, "H", TERMINATED, action=cancel("G"),
                         outputs=[Output(TU, "failure")],
                         channel=TIMER_CHANNEL)
    m.add_transition("accepted", ACK, TERMINATED, action=(
        cancel("G"), cancel("H")), outputs=[Output(TU, ACK)])
    m.add_transition("completed", ACK, "confirmed", action=(
        cancel("G"), cancel("H"), start("I", v("timer_i"))))
    m.add_transition("confirmed", ACK, "confirmed")
    m.add_transition("confirmed", "I", TERMINATED, channel=TIMER_CHANNEL)
    return m


def _non_invite_server() -> Efsm:
    """RFC 3261 §17.2.2 (Figure 8)."""
    m = _machine("non-invite-server", "trying", PROCEEDING, "completed",
                 timers=("timer_j",))
    response, resend = Output(WIRE, "response"), Output(WIRE, "resend")
    for state in ("trying", PROCEEDING):
        m.add_transition(state, "response", PROCEEDING, PROVISIONAL,
                         outputs=[response])
        m.add_transition(state, "response", "completed", FINAL,
                         start("J", v("timer_j")), [response])
    for state in (PROCEEDING, "completed"):
        m.add_transition(state, "request", state, outputs=[resend])
    m.add_transition("completed", "J", TERMINATED, channel=TIMER_CHANNEL)
    return m


_MACHINES: Dict[str, Efsm] = {}


def transaction_machines() -> Dict[str, Efsm]:
    """The four definitions by name, built and frozen once per process on
    first use — not at import, whose cost every process start pays."""
    if not _MACHINES:
        _MACHINES.update((machine.name, machine.freeze()) for machine in (
            _invite_client(), _non_invite_client(), _invite_server(),
            _non_invite_server()))
    return _MACHINES


# ---- the environment: what each output does --------------------------------

class Runner:
    """One running machine: :meth:`_handle` delivers an event, then calls
    ``_output(output)`` for each output of the firing, in order; an event
    no transition takes is ignored.  ``on_final(self)``, if set, runs first
    when the firing enters a final state."""

    machine: EfsmInstance
    on_final: Optional[Callable[[Any], None]] = None

    def _handle(self, event: Event) -> None:
        result = self.machine.deliver(event)
        if (self.on_final is not None and result.to_state != result.from_state
                and result.to_state in self.machine.definition.final_states):
            self.on_final(self)
        for output in result.outputs:
            self._output(output)

    def _handle_response(self, response: SipResponse) -> None:
        self._handle(Event("response", {"status": response.status,
                                        "message": response}))


class Transaction(Runner):
    """One running transaction machine: ``MACHINE`` names its definition,
    ``_output(output)`` does what each of its outputs says."""

    MACHINE = ""

    def __init__(self, transport: Transport, request: SipRequest,
                 timers: TimerTable):
        self.transport = transport
        self.request = request
        definition = transaction_machines()[self.MACHINE]
        sim = transport.sim
        self.machine = EfsmInstance(
            definition, {name: getattr(timers, name)
                         for name in definition.global_variables},
            clock_now=lambda: sim.now, timer_scheduler=sim.schedule)
        self.machine.on_timer_event = self._handle

    @property
    def state(self) -> str:
        return self.machine.state

    @property
    def terminated(self) -> bool:
        return self.machine.state == TERMINATED


class ClientTransaction(Transaction):
    """A client transaction: owns the request and the destination."""

    def __init__(self, transport: Transport, request: SipRequest,
                 destination: Endpoint,
                 on_response: Callable[[SipResponse], None],
                 on_timeout: Optional[Callable[[], None]] = None,
                 timers: TimerTable = DEFAULT_TIMERS):
        if request.branch is None:
            raise SipProtocolError("client transaction request needs a Via branch")
        super().__init__(transport, request, timers)
        self.destination = destination
        self.on_response = on_response
        self.on_timeout = on_timeout

    @property
    def key(self) -> Tuple[str, str]:
        cseq = self.request.cseq
        return (self.request.branch or "", cseq.method if cseq else self.request.method)

    def start(self) -> None:
        """The TU hands the request to the transaction."""
        self._handle(Event("request"))

    receive_response = Transaction._handle_response

    def _output(self, output: Event) -> None:
        name, message = output.name, output.get("message")
        if name == "request":
            self.transport.send_message(self.request, self.destination)
        elif name == ACK:
            self.transport.send_message(self._ack(message), self.destination)
        elif name == "response":
            self.on_response(message)
        elif self.on_timeout is not None:
            self.on_timeout()

    def _ack(self, response: SipResponse) -> SipRequest:
        """ACK for a non-2xx final response (RFC 3261 §17.1.1.3)."""
        ack = SipRequest(ACK, self.request.uri)
        ack.set("Via", self.request.get("Via"))
        ack.set("From", self.request.get("From"))
        ack.set("To", response.get("To") or self.request.get("To"))
        ack.set("Call-ID", self.request.call_id)
        ack.set("CSeq", f"{self.request.cseq.number} {ACK}")
        ack.set("Max-Forwards", 70)
        return ack


class InviteClientTransaction(ClientTransaction):
    """RFC 3261 §17.1.1."""

    MACHINE = "invite-client"


class NonInviteClientTransaction(ClientTransaction):
    """RFC 3261 §17.1.2."""

    MACHINE = "non-invite-client"


def _server_key(request: SipRequest, method: str) -> Tuple[str, str, str]:
    """(branch, top Via sent-by, method): how a server transaction is
    matched (RFC 3261 §17.2.3)."""
    via = request.top_via
    return (request.branch or "", f"{via.host}:{via.port}" if via else "",
            method)


class ServerTransaction(Transaction):
    """A server transaction: owns the original request and reply address."""

    def __init__(self, transport: Transport, request: SipRequest,
                 source: Endpoint, timers: TimerTable = DEFAULT_TIMERS,
                 on_ack: Optional[Callable[[SipRequest], None]] = None,
                 on_transport_failure: Optional[Callable[[], None]] = None):
        super().__init__(transport, request, timers)
        self.source = source
        self.last_response: Optional[SipResponse] = None
        self.on_ack = on_ack
        self.on_transport_failure = on_transport_failure

    @property
    def key(self) -> Tuple[str, str, str]:
        return _server_key(self.request, self.request.method)

    def _reply_destination(self) -> Endpoint:
        """Responses go to the top Via sent-by address (RFC 3261 §18.2.2)."""
        via = self.request.top_via
        if via is None:
            return self.source
        host = via.params.get("received") or via.host
        return Endpoint(host, via.port)

    send_response = Transaction._handle_response

    def receive_retransmission(self, request: SipRequest) -> None:
        """A request retransmit: replay the last response, if any."""
        self._handle(Event("request"))

    def _output(self, output: Event) -> None:
        name, message = output.name, output.get("message")
        if name == ACK:
            if self.on_ack is not None:
                self.on_ack(message)
        elif name == "failure":
            if self.on_transport_failure is not None:
                self.on_transport_failure()
        else:
            if name == "response":
                self.last_response = message
            if self.last_response is not None:
                self.transport.send_message(self.last_response,
                                            self._reply_destination())


class InviteServerTransaction(ServerTransaction):
    """RFC 3261 §17.2.1 with the RFC 6026 ``accepted`` state."""

    MACHINE = "invite-server"

    def receive_ack(self, ack: SipRequest) -> None:
        self._handle(Event(ACK, {"message": ack}))


class NonInviteServerTransaction(ServerTransaction):
    """RFC 3261 §17.2.2."""

    MACHINE = "non-invite-server"


class TransactionManager:
    """Routes incoming messages to transactions; creates server transactions.

    The TU supplies two callbacks:

    - ``on_request(request, source, server_transaction)`` for new requests
      (``server_transaction`` is None for 2xx-matching ACKs, which bypass the
      transaction layer per RFC 3261);
    - ``on_stray_response(response, source)`` for responses matching no
      client transaction (proxies forward these statelessly).
    """

    def __init__(self, transport: Transport,
                 on_request: Callable[[SipRequest, Endpoint,
                                       Optional[ServerTransaction]], None],
                 on_stray_response: Optional[Callable[[SipResponse, Endpoint],
                                                      None]] = None,
                 timers: TimerTable = DEFAULT_TIMERS):
        self.transport = transport
        self.timers = timers
        self.on_request = on_request
        self.on_stray_response = on_stray_response
        self.client_transactions: Dict[Tuple[str, str], ClientTransaction] = {}
        self.server_transactions: Dict[Tuple[str, str, str], ServerTransaction] = {}

    def send_request(self, request: SipRequest, destination: Endpoint,
                     on_response: Callable[[SipResponse], None],
                     on_timeout: Optional[Callable[[], None]] = None
                     ) -> ClientTransaction:
        """Create, register, and start the right client transaction."""
        cls = (InviteClientTransaction if request.method == INVITE
               else NonInviteClientTransaction)
        transaction = cls(self.transport, request, destination,
                          on_response, on_timeout, timers=self.timers)
        self.client_transactions[transaction.key] = transaction
        transaction.on_final = (
            lambda done: self.client_transactions.pop(done.key, None))
        transaction.start()
        return transaction

    def handle_response(self, response: SipResponse, source: Endpoint) -> None:
        branch = response.branch
        cseq = response.cseq
        if branch and cseq:
            transaction = self.client_transactions.get((branch, cseq.method))
            if transaction is not None:
                transaction.receive_response(response)
                return
        if self.on_stray_response is not None:
            self.on_stray_response(response, source)

    def handle_request(self, request: SipRequest, source: Endpoint) -> None:
        method = request.method
        existing = self.server_transactions.get(
            _server_key(request, INVITE if method == ACK else method))

        if method == ACK:
            if isinstance(existing, InviteServerTransaction):
                existing.receive_ack(request)
                if existing.terminated and existing.on_ack is None:
                    # 2xx ACK with no transaction hook: give it to the TU.
                    self.on_request(request, source, None)
            else:
                # ACK for a 2xx whose transaction is gone: TU handles it.
                self.on_request(request, source, None)
            return

        if existing is not None and existing.request.method == method:
            existing.receive_retransmission(request)
            return

        cls = (InviteServerTransaction if method == INVITE
               else NonInviteServerTransaction)
        transaction = cls(self.transport, request, source, timers=self.timers)
        transaction.on_final = (
            lambda done: self.server_transactions.pop(done.key, None))
        self.server_transactions[transaction.key] = transaction
        self.on_request(request, source, transaction)

    def find_invite_server_transaction(
        self, cancel: SipRequest
    ) -> Optional[InviteServerTransaction]:
        """Locate the INVITE server transaction a CANCEL targets.

        Per RFC 3261 §9.2 the CANCEL matches by the same branch/sent-by as
        the INVITE it cancels.
        """
        if cancel.method != CANCEL:
            raise SipProtocolError("not a CANCEL request")
        transaction = self.server_transactions.get(_server_key(cancel, INVITE))
        if isinstance(transaction, InviteServerTransaction):
            return transaction
        return None
