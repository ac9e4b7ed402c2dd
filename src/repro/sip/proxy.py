"""SIP proxy server: registrar + stateless forwarding proxy.

Mirrors the paper's deployment: one proxy per enterprise domain, sitting in
the DMZ.  The proxy "has no media capability and only facilitates the two
end points to discover and contact each other through SIP signaling" — it
forwards requests toward registered contacts (local domain) or toward the
remote domain's proxy (via the :class:`~repro.sip.dns.DomainDirectory`), and
routes responses back along the Via stack.  It does not record-route, so
in-dialog requests and all media bypass it.
"""

from __future__ import annotations

from typing import Optional, Union

import hashlib

from ..netsim.address import Endpoint
from ..netsim.node import Host
from .constants import BRANCH_MAGIC_COOKIE, DEFAULT_SIP_PORT, REGISTER
from .dns import DomainDirectory
from .headers import Via
from .message import SipRequest, SipResponse
from .registrar import LocationService, process_register
from .transport import SipTransport

__all__ = ["ProxyServer"]


class ProxyServer:
    """A stateless forwarding proxy + registrar for one domain."""

    def __init__(
        self,
        host: Host,
        domain: str,
        dns: DomainDirectory,
        port: int = DEFAULT_SIP_PORT,
        location: Optional[LocationService] = None,
        authenticator=None,
    ):
        self.host = host
        self.sim = host.sim
        self.domain = domain.lower()
        self.dns = dns
        #: When set (a :class:`repro.sip.auth.Authenticator`), REGISTER
        #: requests must carry a valid digest Authorization or are
        #: challenged with 401.
        self.authenticator = authenticator
        self.location = location if location is not None else LocationService()
        self.transport = SipTransport(host, port)
        self.transport.set_handler(self._on_message)
        dns.publish(self.domain, self.transport.local_endpoint)
        self.requests_forwarded = 0
        self.responses_forwarded = 0
        self.requests_rejected = 0

    @property
    def endpoint(self) -> Endpoint:
        return self.transport.local_endpoint

    # -- dispatch ---------------------------------------------------------

    def _on_message(self, message: Union[SipRequest, SipResponse],
                    source: Endpoint) -> None:
        if isinstance(message, SipRequest):
            self._on_request(message, source)
        else:
            self._on_response(message)

    # -- request path --------------------------------------------------------

    def _on_request(self, request: SipRequest, source: Endpoint) -> None:
        if request.method == REGISTER:
            if self.authenticator is not None and \
                    not self.authenticator.verify(request):
                self.transport.send_message(
                    self.authenticator.challenge(request), source)
                return
            response = process_register(request, self.location, self.sim.now)
            self.transport.send_message(response, source)
            return

        max_forwards = request.get("Max-Forwards")
        if max_forwards is not None:
            remaining = int(max_forwards) - 1
            if remaining <= 0:
                self._reject(request, 483)
                return
            request.set("Max-Forwards", remaining)

        destination = self._route(request)
        if destination is None:
            self._reject(request, 404)
            return

        # Stateless forwarding: push our Via so the response returns here.
        # RFC 3261 §16.11: a stateless proxy MUST derive its branch from the
        # incoming request so retransmissions get the same branch — a fresh
        # branch per forward would make every retransmission look like a new
        # transaction downstream.
        request.prepend(
            "Via",
            f"SIP/2.0/UDP {self.host.ip}:{self.transport.port}"
            f";branch={self._stateless_branch(request)}",
        )
        self.requests_forwarded += 1
        self.transport.send_message(request, destination)

    def _route(self, request: SipRequest) -> Optional[Endpoint]:
        """Next hop for a request: local binding or remote domain proxy."""
        uri = request.uri
        if uri.host == self.host.ip:
            # Request-URI already names us; route on the To AOR instead.
            to_addr = request.to
            if to_addr is None:
                return None
            uri = to_addr.uri
        if uri.host.lower() == self.domain:
            contact = self.location.lookup(uri.address_of_record, self.sim.now)
            if contact is None:
                return None
            # Retarget the request at the registered contact.
            request.uri = contact
            return Endpoint(contact.host, contact.effective_port)
        remote = self.dns.resolve(uri.host)
        if remote is not None:
            return remote
        # Last resort: treat the URI host as a literal address.
        if _looks_like_ip(uri.host):
            return Endpoint(uri.host, uri.effective_port)
        return None

    def _stateless_branch(self, request: SipRequest) -> str:
        """Deterministic branch derived from the incoming transaction id.

        CANCEL and non-2xx ACK must carry the *same* branch as the INVITE
        they refer to (RFC 3261 §9.1, §17.1.1.3), so the method component is
        normalized to INVITE for them.
        """
        cseq = request.cseq
        if cseq is not None:
            method = "INVITE" if cseq.method in ("CANCEL", "ACK") else cseq.method
            cseq_part = f"{cseq.number} {method}"
        else:
            cseq_part = ""
        seed = "|".join((
            request.branch or "",
            request.call_id or "",
            cseq_part,
            self.host.ip,
        ))
        digest = hashlib.md5(seed.encode("utf-8")).hexdigest()[:16]
        return f"{BRANCH_MAGIC_COOKIE}{digest}"

    def _reject(self, request: SipRequest, status: int) -> None:
        self.requests_rejected += 1
        if request.method == "ACK":
            return  # never answer an ACK
        response = request.create_response(status)
        via = request.top_via
        if via is None:
            return
        self.transport.send_message(response, Endpoint(via.host, via.port))

    # -- response path -------------------------------------------------------

    def _on_response(self, response: SipResponse) -> None:
        """Pop our Via and forward to the next one (RFC 3261 §16.7)."""
        vias = response.get_all("Via")
        if not vias:
            return
        top = Via.parse(vias[0])
        if top.host != self.host.ip or top.port != self.transport.port:
            # Not ours — misrouted; drop.
            return
        response.remove_first("Via")
        next_via_value = response.get("Via")
        if next_via_value is None:
            return
        next_via = Via.parse(next_via_value)
        self.responses_forwarded += 1
        self.transport.send_message(
            response, Endpoint(next_via.params.get("received") or next_via.host,
                               next_via.port))


def _looks_like_ip(text: str) -> bool:
    parts = text.split(".")
    return len(parts) == 4 and all(part.isdigit() for part in parts)
