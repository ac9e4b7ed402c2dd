"""UDP transport binding for SIP elements.

SIP messages are preferred over UDP in the paper ("UDP is preferred over TCP
because of its simplicity and lower transmission delays"); this transport
serializes messages onto the simulated network and parses arriving datagrams,
counting (not raising on) malformed traffic — on a real perimeter, garbage
arrives and must not kill the stack.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..netsim.address import Endpoint
from ..netsim.node import Host
from ..netsim.packet import Datagram
from .constants import DEFAULT_SIP_PORT
from .errors import SipError, SipParseError
from .message import SipRequest, SipResponse, parse_message

__all__ = ["MAX_SIP_DATAGRAM", "SipTransport"]

MessageHandler = Callable[[Union[SipRequest, SipResponse], Endpoint], None]

#: Largest datagram the transport will hand to the parser.  The maximum
#: UDP payload over IPv4 (65535 - 8 UDP - 20 IP); anything larger is a
#: reassembly bug or an attack and is dropped with accounting before
#: parsing can amplify it.
MAX_SIP_DATAGRAM = 65_507


class SipTransport:
    """Binds a UDP port on a simulated host and speaks SIP wire format."""

    def __init__(self, host: Host, port: int = DEFAULT_SIP_PORT,
                 max_datagram: int = MAX_SIP_DATAGRAM):
        self.host = host
        self.sim = host.sim
        self.port = port
        self.max_datagram = max_datagram
        self._handler: Optional[MessageHandler] = None
        self.messages_sent = 0
        self.messages_received = 0
        self.parse_errors = 0
        self.oversize_drops = 0
        self.handler_errors = 0
        #: Malformed-input drops attributed to the claimed source address
        #: (parse failures, oversize datagrams, handler escapes) — the
        #: per-source evidence an operator pivots on when the IDS flags a
        #: fuzzing campaign against this element.
        self.drops_by_source: Dict[str, int] = {}
        host.bind(port, self._on_datagram)

    @property
    def local_endpoint(self) -> Endpoint:
        return Endpoint(self.host.ip, self.port)

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    def send_message(self, message: Union[SipRequest, SipResponse],
                     destination: Endpoint) -> None:
        self.messages_sent += 1
        self.host.send_udp(destination, message.serialize(), self.port)

    def _attribute_drop(self, source: Endpoint) -> None:
        ip = source.ip
        self.drops_by_source[ip] = self.drops_by_source.get(ip, 0) + 1

    def _on_datagram(self, datagram: Datagram) -> None:
        if len(datagram.payload) > self.max_datagram:
            self.oversize_drops += 1
            self._attribute_drop(datagram.src)
            return
        try:
            message = parse_message(datagram.payload)
        except SipParseError:
            self.parse_errors += 1
            self._attribute_drop(datagram.src)
            return
        self.messages_received += 1
        if self._handler is not None:
            try:
                self._handler(message, datagram.src)
            except SipError:
                # Wire-parseable but semantically malformed (a corrupted
                # Request-URI, an INVITE whose dialog headers were mangled
                # in transit, ...): real stacks drop or 400 such requests;
                # either way the endpoint must survive them.
                self.parse_errors += 1
                self._attribute_drop(datagram.src)
            except Exception:
                # A handler bug reachable from hostile wire input (the
                # pre-fix escape: float() on a corrupted Expires) must fail
                # closed into accounting, never out of the receive loop.
                self.handler_errors += 1
                self._attribute_drop(datagram.src)

    def close(self) -> None:
        self.host.unbind(self.port)
