"""Registration hijacking attack (classic SIP threat; extension).

The attacker REGISTERs its own address as the contact binding for a
victim's address-of-record at the victim's registrar.  Every subsequent
call to the victim is then routed to the attacker.  Without digest
authentication the registrar accepts the binding; with an
:class:`~repro.sip.auth.Authenticator` installed the forged REGISTER is
challenged and dies.  Either way the REGISTER crosses the enterprise
perimeter — where legitimate registrations never appear — so vids raises a
registration-hijack alert.
"""

from __future__ import annotations

from typing import Optional

from ..sip.headers import new_branch, new_call_id, new_tag
from ..sip.message import SipRequest
from ..telephony.enterprise import EnterpriseTestbed
from .base import Attack, attacker_host

__all__ = ["RegistrationHijackAttack"]


class RegistrationHijackAttack(Attack):
    """Bind ``victim_aor`` to the attacker's address."""

    name = "registration-hijack"

    def __init__(self, start_time: float,
                 victim_aor: str = "b1@b.example.com",
                 expires: int = 3600):
        super().__init__(start_time)
        self.victim_aor = victim_aor
        self.expires = expires
        self.succeeded: Optional[bool] = None

    def install(self, testbed: EnterpriseTestbed) -> None:
        host = attacker_host(testbed)
        sim = testbed.sim
        proxy = testbed.proxy_b.endpoint

        def check() -> None:
            binding = testbed.proxy_b.location.lookup(self.victim_aor, sim.now)
            self.succeeded = binding is not None and binding.host == host.ip

        def strike() -> None:
            request = self._build_register(sim, host.ip)
            host.send_udp(proxy, request.serialize(), 5060)
            self.log(sim.now, f"forged REGISTER {self.victim_aor} -> "
                              f"{host.ip}")
            # Record the outcome once the registrar has had time to act.
            sim.schedule(2.0, check)

        sim.schedule_at(max(self.start_time, sim.now), strike)

    def _build_register(self, sim, attacker_ip: str) -> SipRequest:
        user, _, domain = self.victim_aor.partition("@")
        request = SipRequest("REGISTER", f"sip:{domain}")
        request.set("Via", f"SIP/2.0/UDP {attacker_ip}:5060"
                           f";branch={new_branch(sim)}")
        request.set("Max-Forwards", 70)
        request.set("To", f"<sip:{self.victim_aor}>")
        request.set("From", f"<sip:{self.victim_aor}>;tag={new_tag(sim)}")
        request.set("Call-ID", new_call_id(sim, attacker_ip))
        request.set("CSeq", "1 REGISTER")
        request.set("Contact", f"<sip:{user}@{attacker_ip}:5060>")
        request.set("Expires", self.expires)
        return request
